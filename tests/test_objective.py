"""Objective layer: metrics, derived operators and their algebraic identities."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iswpt.objective import (Beamformer, PhaseProfile, beam_rows,
                             beampattern_profile, build_operators,
                             composite_objective, hermitian_part,
                             objective_for_beam_batch,
                             objective_for_phase_batch, phase_rows, project,
                             solution_metrics, wrap_angle)
from iswpt.scenario import (ChannelSet, SystemConfig, complex_normal,
                            sample_channels, steering_matrix, trial_stream)
from iswpt.ao import AoConfig
from iswpt.lc import mm_solve
from iswpt.sdp import solve_diag_sdp


def random_instance(seed, n=4, l=6, k=2, m=2, **overrides):
    """A small random scenario plus a random feasible iterate."""
    angles = tuple(np.linspace(-1.0, 1.0, m))
    config = SystemConfig(n_tx=n, n_irs=l, n_ehd=k, n_targets=m,
                          target_angles=angles, seed=seed, **overrides)
    rng = trial_stream(seed, 0)
    channels = sample_channels(config, rng)
    phases = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, l))
    beam = Beamformer.from_phases(rng.uniform(-np.pi, np.pi, n), config)
    return config, channels, phases, beam


def two_element_surface():
    """L=2 single-antenna setup with H_br w = [1, 1]^T."""
    config = SystemConfig(n_tx=1, n_irs=2, n_ehd=1, n_targets=1,
                          target_angles=(0.0,), p0=1.0)
    channels = ChannelSet(h_br=np.ones((2, 1)), h_ru=np.zeros((1, 2)),
                          h_d=np.zeros((1, 1)))
    beam = Beamformer.from_phases(np.zeros(1), config)
    return config, channels, beam


def test_beampattern_constructive_sum():
    config, channels, beam = two_element_surface()
    phases = PhaseProfile(alpha=np.zeros(2))
    gain = beampattern_profile(channels, phases, beam, 0.0, config.delta)[0]
    assert gain == pytest.approx(4.0)


def test_beampattern_destructive_cancellation():
    config, channels, beam = two_element_surface()
    phases = PhaseProfile(alpha=np.array([0.0, np.pi]))
    gain = beampattern_profile(channels, phases, beam, 0.0, config.delta)[0]
    assert gain == pytest.approx(0.0, abs=1e-12)


def test_beampattern_matches_symbol_average():
    # Transmitting x = w * s with unit-power symbols leaves the expected
    # beampattern equal to the closed form; check the sample mean.
    config, channels, phases, beam = random_instance(seed=88)
    closed = beampattern_profile(channels, phases, beam,
                                 config.target_angles[0], config.delta)[0]
    symbols = complex_normal(trial_stream(88, 1), (100_000,))
    steer = steering_matrix(config.target_angles[0], config.n_irs, config.delta)[0]
    amplitude = (steer * phases.v) @ channels.h_br @ beam.w
    empirical = np.mean(np.abs(amplitude * symbols) ** 2)
    assert empirical == pytest.approx(closed, rel=0.01)


def test_beampattern_profile_batches_single_angles():
    config, channels, phases, beam = random_instance(seed=12)
    grid = np.linspace(-np.pi / 2, np.pi / 2, 7)
    profile = beampattern_profile(channels, phases, beam, grid, config.delta)
    for theta, gain in zip(grid, profile):
        assert gain == pytest.approx(
            beampattern_profile(channels, phases, beam, theta, config.delta)[0])


def test_harvested_energy_direct_link_only():
    # No reflected path and a first-unit-row direct link leave exactly the
    # first antenna's share eta * p0 / N at the single device.
    config = SystemConfig(n_tx=4, n_irs=2, n_ehd=1, n_targets=1,
                          target_angles=(0.0,), p0=2.0, eta=0.5)
    h_d = np.zeros((1, 4), dtype=complex)
    h_d[0, 0] = 1.0
    channels = ChannelSet(h_br=np.ones((2, 4)), h_ru=np.zeros((1, 2)), h_d=h_d)
    phases = PhaseProfile(alpha=np.zeros(2))
    beam = Beamformer.from_phases(np.zeros(4), config)
    expected = config.eta * config.p0 / config.n_tx
    rows = beam_rows(channels, phases, config)
    _, harvested, _ = solution_metrics(rows, beam.w, config)
    assert harvested == pytest.approx(expected)


def test_harvested_energy_proportional_to_eta():
    config, channels, phases, beam = random_instance(seed=31, eta=0.4)
    rows = beam_rows(channels, phases, config)
    _, half, sensing = solution_metrics(rows, beam.w, config)
    doubled = dataclasses.replace(config, eta=0.8)
    _, harvested, same_sensing = solution_metrics(
        beam_rows(channels, phases, doubled), beam.w, doubled)
    assert harvested == pytest.approx(2.0 * half, rel=1e-12)
    assert same_sensing == sensing


def test_composite_objective_rho_boundaries():
    config, channels, phases, beam = random_instance(seed=44, rho=1.0)
    h_tilde = beam_rows(channels, phases, config)[:config.n_ehd]
    energy_only = config.eta * config.p0 * np.sum(
        np.abs(h_tilde @ beam.w) ** 2)
    assert composite_objective(channels, phases, beam, config) == pytest.approx(
        energy_only, rel=1e-10)

    config0 = dataclasses.replace(config, rho=0.0)
    sensing_only = np.sum(beampattern_profile(
        channels, phases, beam, config.target_angles, config.delta))
    assert composite_objective(channels, phases, beam, config0) == pytest.approx(
        sensing_only, rel=1e-10)


def test_composite_objective_quadratic_form_agreement():
    config, channels, phases, beam = random_instance(seed=17)
    ops = build_operators(channels, phases, beam, config)
    j_direct = composite_objective(channels, phases, beam, config)
    j_quad = float(np.real(np.vdot(beam.w, ops.big_h @ beam.w)))
    assert j_quad == pytest.approx(j_direct, rel=1e-10)


def test_composite_objective_lifted_form_agreement():
    config, channels, phases, beam = random_instance(seed=18)
    ops = build_operators(channels, None, beam, config)
    x = np.append(phases.v, 1.0)
    j_lifted = float(np.real(np.vdot(x, ops.big_f @ x)))
    assert j_lifted == pytest.approx(
        composite_objective(channels, phases, beam, config), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 6), l=st.integers(1, 8),
       k=st.integers(1, 4), m=st.integers(1, 4), rho=st.floats(0.0, 1.0))
@example(seed=17, n=4, l=6, k=2, m=2, rho=0.9)
@example(seed=18, n=4, l=6, k=2, m=2, rho=0.9)
def test_composite_objective_operator_forms_agree(seed, n, l, k, m, rho):
    # J = w^H big_h w = x^H big_f x (x = [v; 1]) = both batch scores =
    # solution_metrics, and the corner of big_f is rho*eta*p0 sum |h_d,k w|^2.
    config, channels, phases, beam = random_instance(seed, n=n, l=l, k=k, m=m,
                                                     rho=rho)
    ops = build_operators(channels, phases, beam, config)
    j_direct = solution_metrics(beam_rows(channels, phases, config), beam.w,
                                config)[0]
    x = np.append(phases.v, 1.0)
    forms = (
        float(np.real(np.vdot(beam.w, ops.big_h @ beam.w))),
        float(np.real(np.vdot(x, ops.big_f @ x))),
        float(objective_for_phase_batch(channels, beam, config, phases.v)[0]),
        float(objective_for_beam_batch(channels, phases, config, beam.w)[0]),
    )
    for j_form in forms:
        assert j_form == pytest.approx(j_direct, rel=1e-10, abs=1e-300)
    offset = (config.rho * config.eta * config.p0
              * np.sum(np.abs(channels.h_d @ beam.w) ** 2))
    assert ops.big_f[-1, -1] == pytest.approx(offset, rel=1e-12, abs=1e-300)


def test_build_operators_cascade_identities():
    # [v; 1] . (lifted phase row) = (beam row) . w, row by row, with plain
    # unconjugated products: h_tilde_k w for the K devices, then h_hat_m w.
    config, channels, phases, beam = random_instance(seed=3)
    lifted = phase_rows(channels, beam, config)
    rows = beam_rows(channels, phases, config)
    assert lifted.shape == (config.n_ehd + config.n_targets, config.n_irs + 1)
    assert rows.shape == (config.n_ehd + config.n_targets, config.n_tx)
    assert np.all(lifted[config.n_ehd:, -1] == 0.0)
    np.testing.assert_allclose(lifted @ np.append(phases.v, 1.0), rows @ beam.w,
                               rtol=1e-10)
    h_tilde = ((channels.h_ru * phases.v) @ channels.h_br + channels.h_d)
    np.testing.assert_allclose(rows[:config.n_ehd], h_tilde, rtol=1e-12)


def test_build_operators_direct_link_only():
    config, channels, phases, beam = random_instance(seed=5)
    no_reflect = ChannelSet(h_br=channels.h_br,
                            h_ru=np.zeros_like(channels.h_ru),
                            h_d=channels.h_d)
    identity_phases = PhaseProfile(alpha=np.zeros(config.n_irs))
    lifted = phase_rows(no_reflect, beam, config)[:config.n_ehd]
    h_tilde = beam_rows(no_reflect, identity_phases, config)[:config.n_ehd]
    np.testing.assert_allclose(lifted[:, :-1], 0.0, atol=1e-15)
    np.testing.assert_allclose(h_tilde @ beam.w, lifted[:, -1], atol=1e-12)


@pytest.mark.parametrize("l_dim", [4, 6, 40])
def test_one_sided_builds_match_both_sides_bit_for_bit(l_dim):
    for seed in range(4):
        config, channels, phases, beam = random_instance(seed=80 + seed, l=l_dim)
        both = build_operators(channels, phases, beam, config)
        beam_side = build_operators(channels, phases, None, config)
        phase_side = build_operators(channels, None, beam, config)
        assert np.array_equal(beam_side.big_h, both.big_h)
        assert beam_side.big_f is None and phase_side.big_h is None
        assert np.array_equal(phase_side.big_f, both.big_f)
        for mat in (phase_side.big_f, beam_side.big_h):
            assert np.array_equal(mat, hermitian_part(mat))


def test_build_operators_scalar_hand_calc():
    # L=1 collapses F11, the leading block of big_f, to a single weighted
    # magnitude sum.
    config, channels, phases, beam = random_instance(seed=7, n=3, l=1, k=1, m=1,
                                                     rho=0.3)
    ops = build_operators(channels, phases, beam, config)
    g = channels.h_br @ beam.w
    c1 = channels.h_ru[0, 0] * g[0]
    d1 = g[0]  # broadside single-element steering factor is 1
    expected = (config.rho * config.eta * config.p0 * abs(c1) ** 2
                + (1.0 - config.rho) * abs(d1) ** 2)
    assert ops.big_f[0, 0].real == pytest.approx(expected, rel=1e-10)
    assert abs(ops.big_f[0, 0].imag) < 1e-12


def test_operator_matrices_hermitian_psd():
    # Both are Gram matrices, the lifted big_f too: its corner is the offset.
    config, channels, phases, beam = random_instance(seed=29)
    ops = build_operators(channels, phases, beam, config)
    for mat in (ops.big_f, ops.big_f[:-1, :-1], ops.big_h):
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(mat)[0] >= -1e-10 * np.linalg.norm(mat)
    assert ops.big_f[-1, -1].imag == 0.0 and ops.big_f[-1, -1].real > 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hermitian_checks_reject_non_finite_by_name(bad):
    # Unchecked, a non-finite entry makes the MM phases NaN.
    mat = np.eye(3, dtype=complex)
    mat[1, 2] = mat[2, 1] = bad
    with pytest.raises(ValueError, match="big_f must be finite"):
        mm_solve(SimpleNamespace(big_f=mat), PhaseProfile(alpha=np.zeros(2)))
    with pytest.raises(ValueError, match="cost matrix must be finite"):
        solve_diag_sdp(mat, np.ones(3))


def test_objective_invariant_to_global_beam_phase():
    config, channels, phases, beam = random_instance(seed=61)
    j0 = composite_objective(channels, phases, beam, config)
    rotated = Beamformer.from_phases(np.angle(beam.w) + 1.234, config)
    assert composite_objective(channels, phases, rotated, config) == pytest.approx(
        j0, rel=1e-10)


def test_batch_evaluators_match_scalar_entry_point():
    config, channels, phases, beam = random_instance(seed=2)
    rng = trial_stream(2, 9)
    v_rows = np.exp(1j * rng.uniform(-np.pi, np.pi, (5, config.n_irs)))
    batch = objective_for_phase_batch(channels, beam, config, v_rows)
    for row, value in zip(v_rows, batch):
        direct = composite_objective(channels, PhaseProfile(alpha=np.angle(row)),
                                     beam, config)
        assert value == pytest.approx(direct, rel=1e-10)

    w_rows = config.beam_amplitude * np.exp(
        1j * rng.uniform(-np.pi, np.pi, (5, config.n_tx)))
    batch_w = objective_for_beam_batch(channels, phases, config, w_rows)
    for row, value in zip(w_rows, batch_w):
        direct = composite_objective(channels, phases,
                                     Beamformer.from_phases(np.angle(row), config),
                                     config)
        assert value == pytest.approx(direct, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 12), l=st.integers(1, 40),
       k=st.integers(2, 5), m=st.integers(2, 3), rho=st.floats(0.0, 1.0),
       batch=st.integers(1, 9))
def test_batch_rows_match_composite_objective(seed, n, l, k, m, rho, batch):
    # Both batch evaluators and composite_objective are one evaluation of J;
    # a row's value may move only by the rounding of a longer call.
    config, channels, phases, beam = random_instance(seed, n=n, l=l, k=k, m=m,
                                                     rho=rho)
    rng = trial_stream(seed, 9)
    profiles = [PhaseProfile(alpha=a) for a in rng.uniform(-np.pi, np.pi, (batch, l))]
    beams = [Beamformer.from_phases(a, config)
             for a in rng.uniform(-np.pi, np.pi, (batch, n))]
    batch_v = objective_for_phase_batch(channels, beam, config,
                                        np.array([p.v for p in profiles]))
    batch_w = objective_for_beam_batch(channels, phases, config,
                                       np.array([b.w for b in beams]))
    for profile, value in zip(profiles, batch_v):
        assert value == pytest.approx(
            composite_objective(channels, profile, beam, config), rel=1e-14)
    for row_beam, value in zip(beams, batch_w):
        assert value == pytest.approx(
            composite_objective(channels, phases, row_beam, config), rel=1e-14)


def test_solution_metrics_decomposition():
    config, channels, phases, beam = random_instance(seed=6)
    j_value, harvested, sensing = solution_metrics(
        beam_rows(channels, phases, config), beam.w, config)
    # eta * |h_tilde_k w|^2 per device, h_tilde_k = h_ru_k diag(v) H_br + h_d_k.
    per_device = sum(
        config.eta * abs((channels.h_ru[k] * phases.v) @ channels.h_br @ beam.w
                         + channels.h_d[k] @ beam.w) ** 2
        for k in range(config.n_ehd))
    per_target = np.sum(beampattern_profile(channels, phases, beam,
                                            config.target_angles, config.delta))
    assert harvested == pytest.approx(per_device, rel=1e-10)
    assert sensing == pytest.approx(per_target, rel=1e-10)
    assert j_value == pytest.approx(
        config.rho * config.p0 * harvested + (1.0 - config.rho) * sensing,
        rel=1e-12)
    assert j_value == pytest.approx(
        composite_objective(channels, phases, beam, config), rel=1e-10)


def test_beamformer_constraints():
    config = SystemConfig(n_tx=4, n_irs=2, n_ehd=1, n_targets=1,
                          target_angles=(0.0,), p0=8.0)
    beam = Beamformer.from_phases(np.array([0.1, -0.2, 1.0, 2.0]), config)
    assert beam.modulus_error(config) < 1e-15
    with pytest.raises(ValueError):
        Beamformer.from_phases(np.zeros(3), config)
    w = np.array([1.0, 2.0, 1.0, 1.0], dtype=complex)
    lopsided = Beamformer(w=w)
    assert lopsided.modulus_error(config) == pytest.approx(2.0 - config.beam_amplitude)
    # Beamformer once froze the caller's own array: this write raised
    # "assignment destination is read-only".
    w[0] = 3.0
    assert lopsided.w[0] == 1.0 and not lopsided.w.flags.writeable


def test_phase_profile_constraints():
    profile = PhaseProfile(alpha=np.array([0.0, 5.0, -4.0]))
    assert profile.modulus_error() < 1e-15
    assert np.all(profile.alpha >= -np.pi) and np.all(profile.alpha < np.pi)
    np.testing.assert_allclose(profile.v, np.exp(1j * np.array([0.0, 5.0, -4.0])),
                               atol=1e-15)


def test_wrap_angle_range():
    wrapped = wrap_angle(np.array([0.0, np.pi, -np.pi, 3 * np.pi, -9.5]))
    assert np.all(wrapped >= -np.pi) and np.all(wrapped < np.pi)
    np.testing.assert_allclose(np.exp(1j * wrapped),
                               np.exp(1j * np.array([0.0, np.pi, -np.pi,
                                                     3 * np.pi, -9.5])),
                               atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(phase=st.lists(st.sampled_from([np.pi, -np.pi, 0.0, -0.0, 3 * np.pi])
                      | st.floats(-20.0, 20.0), min_size=1, max_size=64))
def test_kernel_constructors_match_public_ones_bit_for_bit(phase):
    # from_phases skips the public constructor's copy and checks; the array
    # it stores must be the same bits.  The from_projection constructors
    # store the fresh vector they are given, read-only, and a profile's
    # alpha is arg(v) in [-pi, pi).
    phase = np.array(phase)
    config = SystemConfig(n_tx=phase.size, n_irs=2, n_ehd=1, n_targets=1,
                          target_angles=(0.0,))
    beam = Beamformer.from_phases(phase, config)
    public_beam = Beamformer(w=config.beam_amplitude * np.exp(1j * phase))
    assert beam.w.tobytes() == public_beam.w.tobytes()
    projected_beam = Beamformer.from_projection(public_beam.w.copy())
    assert projected_beam.w.tobytes() == public_beam.w.tobytes()
    public_profile = PhaseProfile(alpha=phase)
    profile = PhaseProfile.from_projection(public_profile.v.copy())
    assert profile.v.tobytes() == public_profile.v.tobytes()
    want = np.angle(profile.v)
    assert np.array_equal(profile.alpha, np.where(want == np.pi, -np.pi, want))
    assert np.all(profile.alpha >= -np.pi) and np.all(profile.alpha < np.pi)
    assert not any(arr.flags.writeable for arr in
                   (beam.w, projected_beam.w, profile.alpha, profile.v))
    assert phase.flags.writeable


ulp_4 = 4.0 * np.finfo(float).eps
components = (st.sampled_from([0.0, -0.0])
              | st.builds(lambda sign, exp10: sign * 10.0 ** exp10,
                          st.sampled_from([1.0, -1.0]), st.floats(-150.0, 150.0)))


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(components, components), min_size=1, max_size=48),
       amp=st.sampled_from([1.0, 0.5, 0.1, 3.0]) | st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
@example(parts=[(-1.0, 0.0), (-1.0, -0.0), (0.0, 0.0)], amp=1.0, seed=0)
def test_project_is_the_nearest_point_of_the_circle(parts, amp, seed):
    # amp * y / |y| for y from 1e-150 to 1e150 in either part: modulus amp
    # and the direction of exp(j arg y), each to 4 ulp; the fallback's entry,
    # exactly, where y = 0.  The unit constructors keep those bits, and a
    # profile's alpha stays in [-pi, pi), also where v = -1 + 0j.
    y = np.array([complex(re, im) for re, im in parts])
    fallback = np.exp(1j * np.random.default_rng(seed).uniform(-np.pi, np.pi, y.size))
    out = project(y, amp * fallback, amp)
    zero = y == 0.0
    assert np.array_equal(out[zero], amp * fallback[zero])
    assert np.all(np.abs(np.abs(out[~zero]) - amp) <= ulp_4 * amp)
    assert np.all(np.abs(out[~zero] - amp * np.exp(1j * np.angle(y[~zero])))
                  <= ulp_4 * amp)

    unit = project(y, fallback)
    profile = PhaseProfile.from_projection(unit)
    assert profile.v.tobytes() == unit.tobytes()
    assert np.all(profile.alpha >= -np.pi) and np.all(profile.alpha < np.pi)
    assert np.all(np.abs(np.exp(1j * profile.alpha) - unit) <= ulp_4)
    beam = Beamformer.from_projection(out)
    assert beam.w.tobytes() == out.tobytes()
    assert PhaseProfile.from_projection(np.array([-1.0 + 0.0j])).alpha[0] == -np.pi


@settings(max_examples=200, deadline=None)
@given(phase=st.lists(st.sampled_from([np.pi, -np.pi, 0.0, -0.0, 3 * np.pi, -3 * np.pi])
                      | st.floats(-1e3, 1e3), min_size=1, max_size=64))
def test_phase_profile_holds_only_its_unit_vector(phase):
    # The public constructor stores exp(j wrap_angle(alpha)), the bits lc
    # runs start from; alpha, derived from v, lies in [-pi, pi), also at
    # v = -1 + 0j, and rebuilds v to 4 ulp.
    phase = np.array(phase)
    public = PhaseProfile(phase)
    assert public.v.tobytes() == np.exp(1j * wrap_angle(phase)).tobytes()
    kernel = PhaseProfile.from_projection(np.append(public.v, -1.0 + 0.0j))
    for profile in (public, kernel):
        assert vars(profile).keys() == {"v"}
        alpha = profile.alpha
        assert np.all(alpha >= -np.pi) and np.all(alpha < np.pi)
        assert np.all(np.abs(PhaseProfile(alpha).v - profile.v) <= ulp_4)
    assert kernel.alpha[-1] == -np.pi


def test_array_value_types_compare_and_hash_by_identity():
    # The generated __eq__ and __hash__ compared and hashed the array
    # fields: == raised ValueError and hash() TypeError, also for an
    # AoConfig holding a start.  They now compare by identity.
    # A profile's constructor takes phases, not its field v, so its twin is
    # built from a copy of v.
    config, channels, phases, beam = random_instance(seed=4)
    phases_twin = PhaseProfile.from_projection(phases.v.copy())
    values = [beam, channels, build_operators(channels, phases, beam, config),
              solve_diag_sdp(np.eye(3, dtype=complex), np.ones(3))]
    pairs = [(phases, phases_twin)] + [(value, dataclasses.replace(value))
                                       for value in values]
    for value, twin in pairs:
        assert value == value and value != twin
        assert hash(value) == hash(value)
        assert len({value, twin}) == 2
    start = AoConfig(init_phases=phases, init_beam=beam)
    assert start == AoConfig(init_phases=phases, init_beam=beam)
    assert hash(start) == hash(AoConfig(init_phases=phases, init_beam=beam))
    assert start != AoConfig(init_phases=phases_twin, init_beam=beam)
