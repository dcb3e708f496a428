"""Alternating-optimization driver: traces, stopping rules, both algorithms."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iswpt import lc, objective, scenario, sdp
from iswpt.ao import (ALGORITHM_LC, ALGORITHM_SDP, AoConfig, _initial_iterates,
                      _next_map_tol, _record, run_ao, run_rps)
from iswpt.objective import (Beamformer, PhaseProfile, beam_rows, build_operators,
                             gram, phase_rows, solution_metrics)
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
    for name in ("sdp_tol", "sdp_start_tol"):
        with pytest.raises(TypeError):  # class constants, not settings
            AoConfig(**{name: 1e-6})
    assert (AoConfig().sdp_tol, AoConfig().sdp_start_tol) == (1e-4, 1e-2)


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
    # Off the unit circle: run_ao once recorded v_error 1.0 at init.
    (dict(init_phases=PhaseProfile.from_projection(np.full(10, 2.0 + 0j))), "init_phases"),
    (dict(init_phases=PhaseProfile.from_projection(np.full(10, 1 + 1e-9 + 0j))),
     "init_phases"),
    (dict(init_beam=Beamformer(w=np.ones(11))), "init_beam"),
    (dict(init_beam=Beamformer(w=with_nan(np.ones(12)))), "init_beam"),
    # Off sqrt(p0/N): an infeasible start would record a J the first map drops from.
    (dict(init_beam=Beamformer(w=np.full(12, 10 * np.sqrt(1000 / 12)))), "init_beam"),
    (dict(init_beam=Beamformer(w=np.full(12, (1 + 1e-9) * np.sqrt(1000 / 12)))),
     "init_beam"),
], ids=["phases-9", "phases-nan", "phases-2x", "phases-1e-9",
        "beam-11", "beam-nan", "beam-10x", "beam-1e-9"])
@pytest.mark.parametrize("algorithm", [ALGORITHM_LC, ALGORITHM_SDP])
def test_run_ao_rejects_starting_points_that_do_not_fit(algorithm, start, match):
    config, channels = instance(seed=41, n=12, l=10)
    with pytest.raises(ValueError, match=match):
        run_ao(config, AoConfig(algorithm=algorithm, **start), channels,
               trial_stream(41, 1))


@pytest.mark.parametrize("algorithm", [ALGORITHM_LC, ALGORITHM_SDP])
def test_run_ao_starts_from_an_optimizer_beam(algorithm):
    # A run's final beam and phases are within rounding of sqrt(p0/N) and 1,
    # and the modulus checks at the start let them through, as a warm
    # continuation needs.
    config, channels = instance(seed=42, n=12, l=10)
    first = run_ao(config, AoConfig(algorithm=algorithm, max_outer_iters=2),
                   channels, trial_stream(42, 1))
    ao = AoConfig(algorithm=algorithm, max_outer_iters=2, init_beam=first.beam,
                  init_phases=first.phases)
    trace = run_ao(config, ao, channels, trial_stream(42, 1))
    assert trace.failure is None
    assert_nondecreasing(trace)


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
@pytest.mark.parametrize("algorithm", [ALGORITHM_LC, ALGORITHM_SDP])
def test_caps_of_one_and_two_run_plain_maps(algorithm, case, cap):
    # A jump needs two plain maps before it, so a cap of 1 or 2 never jumps:
    # the trace equals that of plain maps of the algorithm's half-steps, an
    # lc solve per side and, for sdp, its certificate or solve with the lc
    # point as the incumbent.
    config, channels = case
    ao = AoConfig(algorithm=algorithm, max_outer_iters=cap, rel_tol=0.0)
    trace = run_ao(config, ao, channels, trial_stream(config.seed, 1))
    phases, rows, beam = _initial_iterates(config, ao, channels,
                                           trial_stream(config.seed, 1))
    expected = [solution_metrics(rows, beam.w, config)[0]]
    solution_w = solution_v = None
    tol = ao.sdp_start_tol
    for _ in range(cap):
        big_h = build_operators(channels, phases, None, config).big_h
        beam = lc.sca_solve(big_h, beam, config,
                            rel_tol=half_step_tol(ALGORITHM_LC, "w", ao, tol))
        if algorithm == ALGORITHM_SDP:
            beam, _, solution_w = sdp.sdp_update_w(big_h, config, tol,
                                                   beam, solution_w)
        expected.append(solution_metrics(beam_rows(channels, phases, config), beam.w,
                                         config)[0])
        ops = build_operators(channels, None, beam, config)
        phases = lc.mm_solve(ops, phases,
                             rel_tol=half_step_tol(ALGORITHM_LC, "v", ao, tol))
        if algorithm == ALGORITHM_SDP:
            phases, _, solution_v = sdp.sdp_update_v(ops.big_f, config, tol,
                                                     phases, solution_v)
        expected.append(solution_metrics(beam_rows(channels, phases, config), beam.w,
                                         config)[0])
        tol = _next_map_tol(ao, expected[-1], expected[-3])
    assert [s.objective for s in trace.steps] == expected


@settings(max_examples=20, deadline=None)
@given(case=small_instances)
@pytest.mark.parametrize("algorithm", [ALGORITHM_LC, ALGORITHM_SDP])
def test_rejected_jump_records_a_flat_pair(algorithm, case):
    # Map 3 starts at the jump; a zero beam from its beam half-step makes
    # J = 0 < J2, so the jump is rejected: x2 stays, its v record repeats as
    # map 3's w and v records, and map 3 still counts toward the cap.
    config, channels = case
    module, name = (lc, "sca_solve") if algorithm == ALGORITHM_LC else (sdp, "sdp_update_w")
    half_step, sqs3_jump = getattr(module, name), lc.sqs3_jump
    calls, jumps = [], []

    def jump_lowers_j(*args, **kwargs):
        calls.append(args)
        result = half_step(*args, **kwargs)
        if len(calls) != 3:
            return result
        zero = Beamformer(w=np.zeros(config.n_tx))
        return zero if algorithm == ALGORITHM_LC else (zero, *result[1:])

    def spy(*cycle):   # mm_solve's jumps, of L entries, are not counted
        jump = sqs3_jump(*cycle)
        if cycle[0].size == config.n_tx + config.n_irs:
            jumps.append(jump)
        return jump

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, jump_lowers_j)
        patch.setattr(lc, "sqs3_jump", spy)
        ao = AoConfig(algorithm=algorithm, max_outer_iters=4, rel_tol=0.0)
        trace = run_ao(config, ao, channels, trial_stream(config.seed, 1))
    assume(len(jumps) == 1 and jumps[0] is not None)
    assert trace.failure is None
    assert trace.n_outer == 4 and len(trace.steps) == 1 + 2 * 4
    x2 = trace.steps[4]
    assert trace.steps[5:7] == [dataclasses.replace(x2, outer_iter=3, stage=stage)
                                for stage in ("w", "v")]
    assert_nondecreasing(trace)
    assert np.all(np.abs(trace.beam.w) > 0.0)


@settings(max_examples=20, deadline=None)
@given(case=small_instances)
@pytest.mark.parametrize("algorithm", [ALGORITHM_LC, ALGORITHM_SDP])
def test_jump_map_starts_the_beam_solve_at_the_jump(algorithm, case):
    # Map 3 starts at the jump on both routes: its lc.sca_solve gets the
    # jumped beam and the Gram matrix of the jumped phases.
    config, channels = case
    solve, sqs3_jump = lc.sca_solve, lc.sqs3_jump
    starts, jumps = [], []

    def spy_solve(big_h, beam, *args, **kwargs):
        starts.append((big_h, beam))
        return solve(big_h, beam, *args, **kwargs)

    def spy_jump(*cycle):   # the solves' own jumps, of N or L entries, are not counted
        jump = sqs3_jump(*cycle)
        if cycle[0].size == config.n_tx + config.n_irs:
            jumps.append(jump)
        return jump

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lc, "sca_solve", spy_solve)
        patch.setattr(lc, "sqs3_jump", spy_jump)
        ao = AoConfig(algorithm=algorithm, max_outer_iters=3, rel_tol=0.0)
        run_ao(config, ao, channels, trial_stream(config.seed, 1))
    assume(len(jumps) == 1 and jumps[0] is not None)
    assert len(starts) == 3
    (big_h, beam), jump = starts[2], jumps[0]
    assert np.array_equal(beam.w, config.beam_amplitude * jump[:config.n_tx])
    phases = PhaseProfile.from_projection(jump[config.n_tx:])
    assert np.array_equal(big_h, gram(beam_rows(channels, phases, config), config))


def always_certified(bound, j_val, tol):
    """`sdp._certified` with its test forced to pass."""
    return True


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), l=st.integers(1, 40), rho=st.floats(0.0, 1.0),
       rel_tol=st.sampled_from([0.0, 1e-4]))
def test_certified_sdp_run_is_the_lc_run(seed, l, rho, rel_tol):
    # Both algorithms run one lc solve per half-step, and a certified sdp
    # half-step returns its lc point: with every certificate passing, an
    # sdp run is the lc run from the same stream, bit for bit.
    config, channels = instance(seed, l=l, rho=rho)
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdp, "_certified", always_certified)
        for algorithm in (ALGORITHM_LC, ALGORITHM_SDP):
            ao = AoConfig(algorithm=algorithm, max_outer_iters=10, rel_tol=rel_tol)
            runs.append(run_ao(config, ao, channels, trial_stream(seed, 1)))
    lc_run, sdp_run = runs
    assert sdp_run.failure is None and sdp_run.n_outer == lc_run.n_outer
    assert [s.objective for s in sdp_run.steps] == [s.objective for s in lc_run.steps]
    assert np.array_equal(sdp_run.beam.w, lc_run.beam.w)
    assert np.array_equal(sdp_run.phases.v, lc_run.phases.v)
    assert all(s.sdp_certified for s in sdp_run.steps[1:])


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
        assert first.failure is None and first.n_outer > 1
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


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 8), l=st.integers(2, 40),
       rho=st.sampled_from([0.0, 0.5, 1.0]))
def test_sdp_trace_bounds_hold_at_loose_tolerances(seed, n, l, rho):
    # Weak duality over random instances: S is positive definite at every
    # interior-point iterate, so each recorded dual value bounds its
    # half-step's J however loosely the solve stops (1e-2 in the first map).
    config, channels = instance(seed, n=n, l=l, rho=rho)
    ao = AoConfig(algorithm=ALGORITHM_SDP, max_outer_iters=10)
    trace = run_ao(config, ao, channels, trial_stream(seed, 1))
    assert trace.failure is None
    bounds = [(s.relaxed_objective, s.objective) for s in trace.steps[1:]]
    assert len(bounds) == 2 * trace.n_outer
    for bound, j_val in bounds:
        assert bound >= j_val - 1e-12 * abs(bound)


def half_step_tol(algorithm, side, ao, tol):
    """The tolerance a map at `tol` hands its `side` ("w" or "v") half-step:
    an sdp solve's duality gap, an lc solve's rel_tol."""
    if algorithm == ALGORITHM_SDP:
        return tol
    default = lc.SCA_REL_TOL if side == "w" else lc.MM_REL_TOL
    return default * (tol / ao.sdp_tol) ** 2


def spy_half_step_tols(monkeypatch, algorithm):
    """Record ("w" or "v", tolerance) for every half-step, in call order: the
    `tol` of sdp_update_w/v, or the `rel_tol` of lc.sca_solve/mm_solve."""
    module, names, key = ((sdp, ("sdp_update_w", "sdp_update_v"), "tol")
                          if algorithm == ALGORITHM_SDP else
                          (lc, ("sca_solve", "mm_solve"), "rel_tol"))
    calls = []
    for name, side in zip(names, "wv"):
        def spy(*args, _solve=getattr(module, name), _side=side, **kwargs):
            calls.append((_side, kwargs[key]))
            return _solve(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return calls


@settings(max_examples=20, deadline=None)
@given(case=small_instances, rel_tol=st.sampled_from([1e-4, 1e-2]))
@pytest.mark.parametrize("algorithm", [ALGORITHM_LC, ALGORITHM_SDP])
def test_sdp_tol_follows_the_gain_and_a_stop_is_tight(algorithm, case, rel_tol):
    # Both half-steps of a map share one tolerance: 1e-2 in the first map,
    # then a tenth of the last map's relative gain within [1e-4, 1e-2]; lc
    # solves take their default rel_tol times (tol / 1e-4)**2.  A rejected
    # jump, a map without its "v" half-step, leaves it as it was.  A run
    # reported converged stopped on a map solved at sdp_tol: for lc, both
    # solves of its last map ran at their defaults.  An sdp half-step
    # follows the lc solve of its side, at the same map's lc rel_tol.
    config, channels = case
    ao = AoConfig(algorithm=algorithm, rel_tol=rel_tol)
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_half_step_tols(patch, algorithm)
        lc_calls = (spy_half_step_tols(patch, ALGORITHM_LC)
                    if algorithm == ALGORITHM_SDP else calls)
        trace = run_ao(config, ao, channels, trial_stream(config.seed, 1))
    assert lc_calls == [(side, half_step_tol(ALGORITHM_LC, side, ao, used)
                         if algorithm == ALGORITHM_SDP else used)
                        for side, used in calls]
    j_maps = trace.iteration_objectives()
    tol, k = ao.sdp_start_tol, 0
    for side, used in calls:
        assert used == half_step_tol(algorithm, side, ao, tol)
        if side == "w":
            k += 1
        else:
            tol = _next_map_tol(ao, j_maps[k], j_maps[k - 1])
    assert k == trace.n_outer
    if trace.converged:
        assert calls[-2:] == {ALGORITHM_SDP: [("w", ao.sdp_tol), ("v", ao.sdp_tol)],
                              ALGORITHM_LC: [("w", lc.SCA_REL_TOL),
                                             ("v", lc.MM_REL_TOL)]}[algorithm]


@pytest.mark.parametrize("algorithm", [ALGORITHM_LC, ALGORITHM_SDP])
def test_loose_map_without_gain_does_not_stop_the_run(monkeypatch, algorithm):
    # Both half-steps keep the incumbent, so the first map gains nothing.
    # Solved loose it only tightens the next map's solves; the second map,
    # solved tight and also without gain, stops the run.
    def keep_beam(big_h, config, tol, incumbent, warm):
        return incumbent, np.inf, None

    def keep_phases(big_f, config, tol, incumbent, warm):
        return incumbent, np.inf, None

    monkeypatch.setattr(sdp, "sdp_update_w", keep_beam)
    monkeypatch.setattr(sdp, "sdp_update_v", keep_phases)
    monkeypatch.setattr(lc, "sca_solve", lambda big_h, beam, config, rel_tol: beam)
    monkeypatch.setattr(lc, "mm_solve", lambda ops, phases, rel_tol: phases)
    tols = spy_half_step_tols(monkeypatch, algorithm)
    config, channels = instance(seed=5, n=3, l=6)
    trace = run_ao(config, AoConfig(algorithm=algorithm), channels, trial_stream(5, 1))
    assert trace.converged and trace.n_outer == 2
    sides, used = zip(*tols)
    loose, tight = {ALGORITHM_SDP: ((1e-2, 1e-2), (1e-4, 1e-4)),
                    ALGORITHM_LC: ((1e-5, 1e-2), (1e-9, 1e-6))}[algorithm]
    assert sides == tuple("wvwv")
    assert used[:2] == pytest.approx(loose, rel=1e-12) and used[2:] == tight


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 12), l=st.integers(4, 40),
       rho=st.floats(0.0, 1.0), rel_tol=st.sampled_from([1e-4, 1e-6]))
def test_lc_half_steps_ascend_and_stay_feasible_under_the_schedule(seed, n, l, rho,
                                                                   rel_tol):
    # The LC monotone-ascent and feasibility invariants hold at the loose
    # inner tolerances of the early maps as at the defaults.
    config, channels = instance(seed, n=n, l=l, rho=rho)
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_half_step_tols(patch, ALGORITHM_LC)
        trace = run_ao(config, AoConfig(algorithm=ALGORITHM_LC, rel_tol=rel_tol),
                       channels, trial_stream(seed, 1))
    assert calls[0][1] > lc.SCA_REL_TOL and calls[1][1] > lc.MM_REL_TOL
    assert_nondecreasing(trace)
    for step in trace.steps:
        assert step.w_error <= 1e-12 and step.v_error <= 1e-12


def test_trace_records_sdp_iteration_counts(monkeypatch, uncertified):
    # With every certificate failing, each sdp half-step records the
    # iteration count, duality gap and primal residual of its own solve, and
    # is not flagged certified; the initialisation and every lc half-step
    # record None.
    reported = []
    solve = sdp.solve_diag_sdp

    def counting_solve(*args, **kwargs):
        solution = solve(*args, **kwargs)
        reported.append((solution.iterations, solution.duality_gap,
                         solution.primal_residual, False))
        return solution

    def diagnostics(step):
        return (step.sdp_iterations, step.sdp_duality_gap, step.sdp_primal_residual,
                step.sdp_certified)

    monkeypatch.setattr(sdp, "solve_diag_sdp", counting_solve)
    config, channels = instance(seed=5, n=3, l=6)
    ao = AoConfig(algorithm=ALGORITHM_SDP, max_outer_iters=4, rel_tol=0.0)
    trace = run_ao(config, ao, channels, trial_stream(5, 1))
    recorded = [diagnostics(s) for s in trace.steps]
    assert recorded[0] == (None, None, None, None)
    assert len(reported) == 2 * trace.n_outer == len(recorded) - 1
    assert recorded[1:] == reported and all(r[0] > 0 for r in reported)

    ao = AoConfig(algorithm=ALGORITHM_LC, max_outer_iters=4)
    trace = run_ao(config, ao, channels, trial_stream(5, 1))
    assert all(diagnostics(s) == (None, None, None, None) for s in trace.steps)


@pytest.mark.parametrize("seed, l", [(5, 6), (8, 20), (9, 40)])
def test_certified_steps_are_the_half_steps_without_a_solve(monkeypatch, seed, l):
    # A half-step flagged certified returns its lc point.  With 0 iterations
    # it made no interior-point call and records its certificate's gap and
    # the lc point's true diagonal residual; with k > 0 it made exactly one
    # call, which stopped at pass k + 1, the first whose starting dual
    # iterate certifies the lc point.  An unflagged half-step made one call
    # that no iterate certified and that ran to its own stop.  Each records
    # its source's diagnostics.
    solve, certify = sdp.solve_diag_sdp, sdp.certify
    half_steps = []   # per half-step: solves, certificates, stop verdicts, (lc point, result)

    def spy_half_step(name):
        update = getattr(sdp, name)

        def spy(*args, **kwargs):
            half_steps.append(([], [], [], []))
            half_steps[-1][3].extend((kwargs["incumbent"], update(*args, **kwargs)))
            return half_steps[-1][3][1]
        monkeypatch.setattr(sdp, name, spy)

    def counting_solve(*args, stop, **kwargs):
        verdicts = half_steps[-1][2]   # stop's, at the top of each pass after the first
        half_steps[-1][0].append(solve(*args, stop=lambda record: verdicts.append(
            bool(stop(record))) or verdicts[-1], **kwargs))
        return half_steps[-1][0][-1]

    def spy_certify(*args):
        half_steps[-1][1].append(certify(*args))
        return half_steps[-1][1][-1]

    for name in ("sdp_update_w", "sdp_update_v"):
        spy_half_step(name)
    monkeypatch.setattr(sdp, "solve_diag_sdp", counting_solve)
    monkeypatch.setattr(sdp, "certify", spy_certify)
    config, channels = instance(seed, n=4, l=l)
    ao = AoConfig(algorithm=ALGORITHM_SDP, max_outer_iters=8, rel_tol=0.0)
    trace = run_ao(config, ao, channels, trial_stream(seed, 1))
    assert trace.failure is None
    steps, calls = [], iter(half_steps)
    for k, step in enumerate(trace.steps[1:], start=1):
        if step.stage == "v" and steps and steps[-1] is None:
            continue   # the second record of a rejected jump's flat pair
        solves, certificates, verdicts, (point, (out, _, record)) = next(calls)
        if step == dataclasses.replace(trace.steps[k - 1], outer_iter=step.outer_iter,
                                       stage="w"):
            steps.append(None)   # a rejected jump: its beam half-step is not recorded
            continue
        steps.append(step)
        assert len(certificates) == 1 and len(solves) in (0, 1)
        assert step.sdp_certified == record.certified
        assert out is point or not step.sdp_certified
        passes = step.sdp_iterations
        assert verdicts == [False] * (passes - 1) + [step.sdp_certified] * (passes > 0)
        source = solves[0] if solves else certificates[0]
        assert source is record
        assert (step.sdp_iterations, step.sdp_duality_gap, step.sdp_primal_residual) \
            == (source.iterations, source.duality_gap, source.primal_residual)
        if not solves:
            assert step.sdp_certified and step.sdp_iterations == 0
            assert step.sdp_primal_residual <= 1e-15
        elif step.sdp_certified:
            assert step.sdp_iterations > 0
    assert next(calls, None) is None
    kinds = {(s.sdp_certified, s.sdp_iterations > 0) for s in steps if s is not None}
    assert (True, False) in kinds and kinds <= {(True, False), (True, True), (False, True)}
    if l >= 20:
        assert (True, True) in kinds
    if seed == 9:
        assert (False, True) in kinds


def test_sdp_failure_truncates_trace(monkeypatch, uncertified):
    # The certificate fails, so the first half-step runs the solve, which
    # cannot reach a relative gap of 1e-300.
    config, channels = instance(seed=6, n=3, l=6)
    monkeypatch.setattr(AoConfig, "sdp_start_tol", 1e-300)
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
    d_row = phase_rows(channels, trace.beam, config)[config.n_ehd, :-1]
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
    phases, _, _ = _initial_iterates(config, AoConfig(algorithm=ALGORITHM_LC),
                                     channels, trial_stream(8, 1))
    expected = trial_stream(8, 1).uniform(-np.pi, np.pi, size=config.n_irs)
    assert np.array_equal(phases.alpha, PhaseProfile(alpha=expected).alpha)


def test_given_initialization_passes_through():
    config, channels = instance(seed=9)
    start = PhaseProfile(alpha=np.linspace(-1.0, 1.0, config.n_irs))
    ao = AoConfig(algorithm=ALGORITHM_LC, init_phases=start)
    phases, rows, _ = _initial_iterates(config, ao, channels, trial_stream(9, 1))
    np.testing.assert_allclose(phases.alpha, start.alpha, atol=1e-15)
    assert rows.tobytes() == beam_rows(channels, phases, config).tobytes()


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
    assert [step.stage for step in trace.steps] == ["w"]
    # The trace records only the final beam; it ends no lower than one SCA
    # step from the flat beam, where the loop starts.
    rows = beam_rows(channels, trace.phases, config)
    flat = Beamformer.from_phases(np.zeros(config.n_tx), config)
    one_step = lc.sca_update_w(gram(rows, config), flat, config)
    assert trace.final_objective() >= solution_metrics(rows, one_step.w, config)[0]
    assert trace.beam.w.shape == (config.n_tx,)
    assert trace.beam.modulus_error(config) <= 1e-12
    assert trace.phases.modulus_error() < 1e-15
    # Same stream state reproduces the same frozen profile.
    repeat = run_rps(config, channels, trial_stream(11, 1), max_iters=20)
    assert np.array_equal(repeat.phases.alpha, trace.phases.alpha)


@pytest.mark.parametrize("seed, max_iters, rel_tol", [
    (14, 30, 1e-6), (15, 30, 1e-4), (16, 7, 0.0), (17, 1, 1e-6), (18, 2, 0.0)])
def test_rps_beam_is_sca_solve_from_the_flat_beam(seed, max_iters, rel_tol):
    # The baseline optimizes the beam with the same solver as the lc arm:
    # sca_solve at its frozen phases, from the flat beam, bit for bit.
    config, channels = instance(seed, n=6, l=12)
    trace = run_rps(config, channels, trial_stream(seed, 1), max_iters, rel_tol)
    rows = beam_rows(channels, trace.phases, config)
    flat = Beamformer.from_phases(np.zeros(config.n_tx), config)
    solved = lc.sca_solve(gram(rows, config), flat, config, max_iters, rel_tol)
    assert np.array_equal(trace.beam.w, solved.w)
    assert trace.steps[-1].objective == solution_metrics(rows, solved.w, config)[0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(1, 6), l=st.integers(1, 10),
       max_iters=st.integers(1, 40),
       rel_tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2]))
def test_rps_counts_its_maps_and_flags_its_stop_test(seed, n, l, max_iters, rel_tol):
    # n_outer is the number of SCA maps, within the cap, and converged is
    # the result of the loop's last stop test: the loop ends on the first
    # test that passes, else at the cap.
    config, channels = instance(seed, n=n, l=l)
    tests, maps = [], []
    stalled, step = lc.stalled, lc.sca_update_w

    def spy_stalled(*args):
        tests.append(stalled(*args))
        return tests[-1]

    def spy_step(*args):
        maps.append(args)
        return step(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lc, "stalled", spy_stalled)
        patch.setattr(lc, "sca_update_w", spy_step)
        trace = run_rps(config, channels, trial_stream(seed, 1), max_iters, rel_tol)
    assert 1 <= trace.n_outer == len(maps) <= max_iters
    assert tests and not any(tests[:-1])
    assert trace.converged == tests[-1]
    assert trace.converged or trace.n_outer == max_iters


def test_rps_builds_the_beam_rows_once(monkeypatch):
    # The rps record reads J at the one frozen profile, whose rows the
    # operator build before the loop already needed: one row build serves both.
    config, channels = instance(13)
    builds = []
    steering = objective.target_steering_matrix
    monkeypatch.setattr(objective, "target_steering_matrix",
                        lambda *args: builds.append(args) or steering(*args))
    trace = run_rps(config, channels, trial_stream(13, 1), max_iters=20)
    assert trace.n_outer > 1 and len(builds) == 1


def flat_pairs(trace):
    """The maps whose w and v records repeat the record before them."""
    steps = trace.steps
    return [k for k in range(1, trace.n_outer + 1)
            if steps[2 * k - 1:2 * k + 1] == [
                dataclasses.replace(steps[2 * k - 2], outer_iter=k, stage=stage)
                for stage in ("w", "v")]]


def test_lc_run_builds_rows_once_per_profile(monkeypatch):
    # Rows are built at the start, at each jump start, and twice per kept
    # map (the lifted rows of its beam, the beam rows of its new phases).
    # A rejected jump falls back to the rows of x2, so the map after it
    # builds no beam rows for its beam half-step.
    config, channels = instance(13)
    builds, solves, jumps = [], [], []
    steering, sca_solve, sqs3_jump = (objective.target_steering_matrix,
                                      lc.sca_solve, lc.sqs3_jump)

    def third_solve_zero(*args, **kwargs):
        solves.append(args)
        beam = sca_solve(*args, **kwargs)
        return Beamformer(w=np.zeros(config.n_tx)) if len(solves) == 3 else beam

    def spy(*cycle):   # mm_solve's jumps, of L entries, are not counted
        jump = sqs3_jump(*cycle)
        if cycle[0].size == config.n_tx + config.n_irs and jump is not None:
            jumps.append(jump)
        return jump

    monkeypatch.setattr(objective, "target_steering_matrix",
                        lambda *args: builds.append(args) or steering(*args))
    monkeypatch.setattr(lc, "sca_solve", third_solve_zero)
    monkeypatch.setattr(lc, "sqs3_jump", spy)
    ao = AoConfig(algorithm=ALGORITHM_LC, max_outer_iters=4, rel_tol=0.0)
    trace = run_ao(config, ao, channels, trial_stream(13, 1))
    rejected = flat_pairs(trace)
    assert trace.n_outer == 4 and rejected == [3] and len(jumps) == 1
    assert len(builds) == 1 + 2 * (trace.n_outer - len(rejected)) + len(jumps)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), l=st.integers(2, 16),
       rho=st.sampled_from([0.0, 0.5, 1.0]), cap=st.integers(1, 12))
@example(seed=0, l=12, rho=0.0, cap=12)   # lc ends on a rejected jump at the cap
@example(seed=4, l=16, rho=0.0, cap=12)   # sdp ends on a rejected jump at the cap
@pytest.mark.parametrize("algorithm", [ALGORITHM_LC, ALGORITHM_SDP])
def test_last_record_reads_the_rows_of_the_final_iterate(algorithm, seed, l, rho, cap):
    # Every record reads the rows and the modulus errors of its own
    # iterate, a rejected jump's fallback included: the rows are the
    # beam_rows of some profile, and the errors those of the beam and of
    # that profile.  The last record equals the metrics of freshly built
    # rows at the final iterate, to the bit.
    config, channels = instance(seed, l=l, rho=rho)
    built, fresh_rows = [], []   # (phases, rows) of each beam_rows call

    def spy_rows(channels, phases, config):
        built.append((phases, beam_rows(channels, phases, config)))
        return built[-1][1]

    def check_rows(trace, config, rows, beam, errors, *args):
        (phases,) = [p for p, r in built if r is rows]
        fresh = beam_rows(channels, phases, config)
        fresh_rows.append(rows.tobytes() == fresh.tobytes() and errors
                          == (beam.modulus_error(config), phases.modulus_error()))
        return _record(trace, config, rows, beam, errors, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("iswpt.ao.beam_rows", spy_rows)
        patch.setattr("iswpt.ao._record", check_rows)
        ao = AoConfig(algorithm=algorithm, max_outer_iters=cap)
        trace = run_ao(config, ao, channels, trial_stream(seed, 1))
    assert fresh_rows and all(fresh_rows)
    last = trace.steps[-1]
    fresh = solution_metrics(beam_rows(channels, trace.phases, config), trace.beam.w,
                             config)
    assert (last.objective, last.harvested_sum, last.beampattern_sum) == fresh


needs_blas_threads = pytest.mark.skipif(
    scenario._BLAS_THREAD_CALLS is None,
    reason="no OpenBLAS thread-count setter resolves")


@pytest.mark.parametrize("n_irs", [10, 40])
@pytest.mark.parametrize("algorithm", [ALGORITHM_LC, ALGORITHM_SDP])
def test_composite_objective_reads_the_final_trace_value(algorithm, n_irs):
    # One evaluation of J: at a run's final iterate composite_objective
    # gives the bits that the trace recorded there.
    config = SystemConfig(n_irs=n_irs, seed=5)
    for trial in range(3):
        channels = sample_channels(config, trial_stream(5, 0, trial))
        trace = run_ao(config, AoConfig(algorithm), channels, trial_stream(5, 1, trial))
        assert objective.composite_objective(
            channels, trace.phases, trace.beam, config) == trace.final_objective()


@pytest.mark.parametrize("entry", [ALGORITHM_LC, ALGORITHM_SDP, "rps"])
def test_runs_hold_one_blas_thread_and_restore_the_count(monkeypatch, entry,
                                                         blas_at_two_threads):
    # The sdp runs' certificates fail, so their half-steps reach the solve.
    get = blas_at_two_threads
    if entry == ALGORITHM_SDP:
        monkeypatch.setattr(sdp, "_certified", lambda *args, **kwargs: None)
    config, channels = instance(seed=43, n=3, l=6)
    seen = []
    module, name = {ALGORITHM_LC: (lc, "sca_solve"), ALGORITHM_SDP: (sdp, "solve_diag_sdp"),
                    "rps": (lc, "sca_update_w")}[entry]
    inner = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(get())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    if entry == "rps":
        trace = run_rps(config, channels, trial_stream(43, 1), max_iters=3)
    else:
        trace = run_ao(config, AoConfig(algorithm=entry, max_outer_iters=3), channels,
                       trial_stream(43, 1))
    assert trace.failure is None and seen and set(seen) == {1}
    assert get() == 2


def test_blas_thread_count_returns_after_a_raise_and_a_nested_run(monkeypatch,
                                                                  blas_at_two_threads):
    get = blas_at_two_threads
    config, channels = instance(seed=44, n=3, l=6)
    bad = AoConfig(init_beam=Beamformer(w=np.ones(3)))
    with pytest.raises(ValueError, match="init_beam"):
        run_ao(config, bad, channels, trial_stream(44, 1))
    assert get() == 2

    after_nested = []
    solve = lc.sca_solve

    def nesting_solve(*args, **kwargs):
        if not after_nested:
            run_rps(config, channels, trial_stream(44, 2), max_iters=2)
            after_nested.append(get())
        return solve(*args, **kwargs)

    monkeypatch.setattr(lc, "sca_solve", nesting_solve)
    run_ao(config, AoConfig(max_outer_iters=2), channels, trial_stream(44, 1))
    assert after_nested == [1] and get() == 2


@needs_blas_threads
@pytest.mark.parametrize("seed", [45, 46, 47])
def test_one_blas_thread_changes_no_bit(seed):
    # At L=40 (41 x 41 sdp matrices) a run on one thread and the unwrapped
    # run at the default count give equal traces, step for step.
    config, channels = instance(seed=seed, n=12, l=40, k=5, m=3)
    for algorithm in (ALGORITHM_LC, ALGORITHM_SDP):
        ao = AoConfig(algorithm=algorithm)
        runs = [run(config, ao, channels, trial_stream(seed, 1))
                for run in (run_ao, run_ao.__wrapped__)]
        assert runs[0].steps == runs[1].steps and runs[0].n_outer > 1
        assert np.array_equal(runs[0].beam.w, runs[1].beam.w)
        assert np.array_equal(runs[0].phases.alpha, runs[1].phases.alpha)
    runs = [run(config, channels, trial_stream(seed, 1))
            for run in (run_rps, run_rps.__wrapped__)]
    assert runs[0].steps == runs[1].steps and runs[0].n_outer > 1
    assert np.array_equal(runs[0].beam.w, runs[1].beam.w)
