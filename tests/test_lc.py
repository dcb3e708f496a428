"""Closed-form updates: dominant eigenvalue, SCA beam step, MM phase step."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iswpt.lc import (MmProblem, lambda_max, mm_objective, mm_solve,
                      mm_surrogate, mm_update_v, sca_solve, sca_update_w)
from iswpt.objective import (Beamformer, PhaseProfile, build_operators,
                             composite_objective, target_steering_matrix)
from iswpt.scenario import (ChannelSet, SystemConfig, complex_normal,
                            sample_channels, steering_matrix, trial_stream)


def random_hermitian(rng, n, nsd=False):
    a = complex_normal(rng, (n, n))
    mat = 0.5 * (a + a.conj().T)
    if nsd:
        mat = -(a.conj().T @ a)
        mat = 0.5 * (mat + mat.conj().T)
    return mat


def random_instance(seed, n=4, l=6, k=2, m=2, **overrides):
    angles = tuple(np.linspace(-1.0, 1.0, m))
    config = SystemConfig(n_tx=n, n_irs=l, n_ehd=k, n_targets=m,
                          target_angles=angles, seed=seed, **overrides)
    rng = trial_stream(seed, 0)
    channels = sample_channels(config, rng)
    phases = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, l))
    beam = Beamformer.from_phases(rng.uniform(-np.pi, np.pi, n), config)
    return config, channels, phases, beam


def quad_form(big_h, w):
    return float(np.real(np.vdot(w, big_h @ w)))


# ---------------------------------------------------------------------------
# lambda_max


def test_lambda_max_diagonal():
    assert lambda_max(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0)


def test_lambda_max_zero_matrix():
    assert lambda_max(np.zeros((4, 4))) == 0.0


def test_lambda_max_matches_dense_oracle():
    rng = trial_stream(1, 0)
    for _ in range(10):
        mat = random_hermitian(rng, 8)
        reference = float(np.linalg.eigvalsh(mat)[-1])
        assert lambda_max(mat) == pytest.approx(reference, rel=1e-10, abs=1e-12)


def test_lambda_max_large_matrix_uses_iterative_path():
    """A 300 x 300 matrix takes the dense path, like every other size.

    The name is kept from when sizes above 256 used power iteration; a
    dominant rank-one bump keeps the top eigenvalue well separated.
    """
    rng = trial_stream(2, 0)
    u = complex_normal(rng, (300,))
    u /= np.linalg.norm(u)
    mat = np.diag(np.linspace(0.0, 1.0, 300)) + 10.0 * np.outer(u, u.conj())
    mat = 0.5 * (mat + mat.conj().T)
    reference = float(np.linalg.eigvalsh(mat)[-1])
    assert lambda_max(mat) == pytest.approx(reference, rel=1e-8)


def test_lambda_max_rejects_bad_input():
    with pytest.raises(ValueError):
        lambda_max(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        lambda_max(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# SCA beamformer step


def test_sca_identity_matrix_is_fixed_point():
    config = SystemConfig(n_tx=5, n_irs=2, n_ehd=1, n_targets=1,
                          target_angles=(0.0,), p0=5.0)
    w_prev = Beamformer.from_phases(np.array([0.3, -1.0, 2.2, 0.0, -2.9]), config)
    w_new = sca_update_w(np.eye(5), w_prev, config)
    np.testing.assert_allclose(w_new.w, w_prev.w, atol=1e-12)


def test_sca_rank_one_alignment_in_one_step():
    # For big_h = h^H h with constant-modulus h, a single step lands on the
    # global maximizer: |h w| = amp * N.
    config = SystemConfig(n_tx=6, n_irs=2, n_ehd=1, n_targets=1,
                          target_angles=(0.0,), p0=3.0)
    rng = trial_stream(3, 0)
    h = np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
    big_h = np.outer(h.conj(), h)
    w_prev = Beamformer.from_phases(rng.uniform(-np.pi, np.pi, 6), config)
    assert abs(np.dot(h, w_prev.w)) > 1e-9
    w_new = sca_update_w(big_h, w_prev, config)
    optimum = (config.beam_amplitude * config.n_tx) ** 2
    assert quad_form(big_h, w_new.w) == pytest.approx(optimum, rel=1e-10)
    np.testing.assert_allclose(np.abs(w_new.w), config.beam_amplitude, atol=1e-12)


def test_sca_zero_matrix_keeps_phases():
    config = SystemConfig(n_tx=4, n_irs=2, n_ehd=1, n_targets=1,
                          target_angles=(0.0,), p0=1.0)
    w_prev = Beamformer.from_phases(np.array([0.5, -0.5, 1.5, -1.5]), config)
    w_new = sca_update_w(np.zeros((4, 4)), w_prev, config)
    np.testing.assert_allclose(w_new.w, w_prev.w, atol=1e-15)


def test_sca_ascent_on_random_instances():
    config = SystemConfig(n_tx=8, n_irs=2, n_ehd=1, n_targets=1,
                          target_angles=(0.0,), p0=2.0)
    rng = trial_stream(4, 0)
    for _ in range(100):
        a = complex_normal(rng, (8, 8))
        big_h = a.conj().T @ a
        big_h = 0.5 * (big_h + big_h.conj().T)
        w_prev = Beamformer.from_phases(rng.uniform(-np.pi, np.pi, 8), config)
        before = quad_form(big_h, w_prev.w)
        after = quad_form(big_h, sca_update_w(big_h, w_prev, config).w)
        assert after >= before - 1e-10 * max(1.0, abs(before))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sca_solve_rejects_non_finite_big_h(bad):
    # Unchecked, one bad entry turns every beamformer phase into NaN.
    config, channels, phases, beam = random_instance(seed=4, n=3, l=4)
    big_h = build_operators(channels, phases, None, config).big_h.copy()
    big_h[1, 2] = bad
    with pytest.raises(ValueError, match="big_h must be finite"):
        sca_solve(big_h, beam, config)


def test_sca_solve_reaches_fixed_point():
    config, channels, phases, beam = random_instance(seed=5, n=6, l=8)
    ops = build_operators(channels, phases, beam, config)
    one_step = sca_update_w(ops.big_h, beam, config)
    solved = sca_solve(ops.big_h, beam, config)
    q0 = quad_form(ops.big_h, beam.w)
    q1 = quad_form(ops.big_h, one_step.w)
    q_star = quad_form(ops.big_h, solved.w)
    assert q1 >= q0 - 1e-10 * abs(q0)
    assert q_star >= q1 - 1e-10 * abs(q1)
    # One more step from the solution moves the quadratic form negligibly.
    q_extra = quad_form(ops.big_h, sca_update_w(ops.big_h, solved, config).w)
    assert q_extra == pytest.approx(q_star, rel=1e-8)


# ---------------------------------------------------------------------------
# MM phase step


def test_mm_problem_validation():
    with pytest.raises(ValueError):
        MmProblem(d_mat=np.array([[0.0, 1.0], [0.0, 0.0]]),
                  c_vec=np.zeros(2), v_prev=np.ones(2))
    with pytest.raises(ValueError):
        MmProblem(d_mat=np.zeros((2, 2)), c_vec=np.zeros(3), v_prev=np.ones(3))


@pytest.mark.parametrize("field", ["c_vec", "v_prev"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_mm_problem_rejects_non_finite_vectors_by_name(field, bad):
    # Unchecked, a NaN in c_vec gave the MM step the phases [nan, 0, 0].
    data = dict(d_mat=-np.eye(3), c_vec=np.ones(3), v_prev=np.ones(3))
    data[field] = np.array([bad, 1.0, 1.0])
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MmProblem(**data)


def test_mm_step_with_flat_curvature():
    # D = -I makes the surrogate's quadratic part vanish, so the update is
    # a pure phase alignment with c.
    problem = MmProblem(d_mat=-np.eye(2), c_vec=np.array([1.0, 1.0j]),
                        v_prev=np.array([1.0 + 0.0j, 1.0 + 0.0j]))
    assert lambda_max(problem.d_mat) == pytest.approx(-1.0)
    out = mm_update_v(problem)
    np.testing.assert_allclose(out.v, [1.0, 1.0j], atol=1e-12)


def test_mm_zero_gamma_keeps_previous_iterate():
    rng = trial_stream(6, 0)
    v_prev = np.exp(1j * rng.uniform(-3.0, 3.0, 5))
    problem = MmProblem(d_mat=np.zeros((5, 5)), c_vec=np.zeros(5), v_prev=v_prev)
    out = mm_update_v(problem)
    np.testing.assert_allclose(out.v, v_prev, atol=1e-14)


def test_mm_descent_on_random_problems():
    rng = trial_stream(7, 0)
    for _ in range(20):
        d_mat = random_hermitian(rng, 6, nsd=True)
        c_vec = complex_normal(rng, (6,))
        v = np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
        problem = MmProblem(d_mat=d_mat, c_vec=c_vec, v_prev=v)
        g_prev = mm_objective(problem, v)
        for _ in range(30):
            v = mm_update_v(problem).v
            problem = MmProblem(d_mat=d_mat, c_vec=c_vec, v_prev=v)
            g_new = mm_objective(problem, v)
            assert g_new <= g_prev + 1e-10 * max(1.0, abs(g_prev))
            g_prev = g_new


def test_mm_objective_ties_to_composite():
    # For operator-built problems, g differs from the composite objective
    # only by sign and the v-independent offset.
    config, channels, phases, beam = random_instance(seed=8)
    ops = build_operators(channels, phases, beam, config)
    problem = MmProblem.from_operators(ops, phases)
    rng = trial_stream(8, 1)
    for _ in range(5):
        profile = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, config.n_irs))
        g = mm_objective(problem, profile.v)
        j = composite_objective(channels, profile, beam, config)
        assert g == pytest.approx(ops.offset - j, rel=1e-9, abs=1e-12)


def test_mm_surrogate_tangent_and_dominating():
    rng = trial_stream(9, 0)
    d_mat = random_hermitian(rng, 8, nsd=True)
    c_vec = complex_normal(rng, (8,))
    v_prev = np.exp(1j * rng.uniform(-np.pi, np.pi, 8))
    problem = MmProblem(d_mat=d_mat, c_vec=c_vec, v_prev=v_prev)
    lam = lambda_max(d_mat)

    g0 = mm_objective(problem, v_prev)
    s0 = mm_surrogate(problem, v_prev, lam=lam)
    assert s0 == pytest.approx(g0, rel=1e-10, abs=1e-12)

    for _ in range(200):
        v = np.exp(1j * rng.uniform(-np.pi, np.pi, 8))
        slack = mm_surrogate(problem, v, lam=lam) - mm_objective(problem, v)
        assert slack >= -1e-10 * max(1.0, abs(g0))


def test_mm_matches_exhaustive_grid_minimum():
    # Iterated MM lands within 2% of the best 8-level quantized profile.
    rng = trial_stream(10, 0)
    levels, dim = 8, 6
    grid = -np.pi + 2.0 * np.pi * np.arange(levels) / levels
    combos = np.array(list(itertools.product(range(levels), repeat=dim)))
    v_all = np.exp(1j * grid[combos])

    for trial in range(3):
        d_mat = random_hermitian(rng, dim, nsd=True)
        c_vec = complex_normal(rng, (dim,))
        quad = np.einsum("bl,lk,bk->b", v_all, d_mat, v_all.conj()).real
        lin = (v_all @ c_vec.conj()).real
        g_grid_min = float(np.min(quad - 2.0 * lin))

        v = np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
        problem = MmProblem(d_mat=d_mat, c_vec=c_vec, v_prev=v)
        for _ in range(500):
            v = mm_update_v(problem).v
            problem = MmProblem(d_mat=d_mat, c_vec=c_vec, v_prev=v)
        g_mm = mm_objective(problem, v)
        assert g_mm <= g_grid_min + 0.02 * abs(g_grid_min)


def test_mm_rank_deficient_curvature_is_flat():
    # f11 built from K+M < L outer products is rank deficient, so the
    # negated matrix has top eigenvalue exactly zero and the update matches
    # the curvature-free formula.
    config, channels, phases, beam = random_instance(seed=11, l=8, k=2, m=2)
    ops = build_operators(channels, phases, beam, config)
    d_mat = -ops.f11
    assert lambda_max(d_mat) <= 1e-10 * np.linalg.norm(ops.f11)
    problem = MmProblem.from_operators(ops, phases)
    np.testing.assert_allclose(mm_update_v(problem).v,
                               mm_update_v(problem, lam=0.0).v, atol=1e-12)


def test_mm_solve_improves_composite_objective():
    config, channels, phases, beam = random_instance(seed=12, l=10)
    ops = build_operators(channels, phases, beam, config)
    before = composite_objective(channels, phases, beam, config)
    solved = mm_solve(ops, phases)
    after = composite_objective(channels, solved, beam, config)
    assert after >= before - 1e-10 * max(1.0, abs(before))
    assert solved.modulus_error() < 1e-15


# ---------------------------------------------------------------------------
# Solvers against the per-step reference loops
#
# The references below are the solvers as first written: every MM step
# rebuilds and re-validates an MmProblem, and every step takes its phases
# with np.angle and an np.abs mask.  The solvers must reproduce them bit for
# bit.


def reference_mm_objective(problem, v):
    v = np.asarray(v, dtype=np.complex128)
    quad = float(np.real(v @ (problem.d_mat @ v.conj())))
    lin = float(np.real(np.vdot(problem.c_vec, v)))
    return quad - 2.0 * lin


def reference_mm_step(problem, lam):
    u_prev = problem.v_prev.conj()
    gamma = (lam * u_prev - problem.d_mat @ u_prev + problem.c_vec.conj()).conj()
    phase = np.where(np.abs(gamma) > 0.0, np.angle(gamma),
                     np.angle(problem.v_prev))
    return PhaseProfile(alpha=phase)


def reference_mm_solve(ops, phases, max_iters=50, rel_tol=1e-6):
    problem = MmProblem.from_operators(ops, phases)
    lam = lambda_max(problem.d_mat)
    out = phases
    g_prev = reference_mm_objective(problem, out.v)
    for _ in range(max_iters):
        problem = MmProblem(d_mat=problem.d_mat, c_vec=problem.c_vec,
                            v_prev=out.v)
        out = reference_mm_step(problem, lam)
        g_new = reference_mm_objective(problem, out.v)
        if abs(g_new - g_prev) < rel_tol * max(abs(g_prev), 1e-300):
            break
        g_prev = g_new
    return out


def reference_sca_solve(big_h, beam, config, max_iters=50, rel_tol=1e-9):
    out = beam
    q_prev = float(np.real(np.vdot(out.w, np.asarray(big_h) @ out.w)))
    for _ in range(max_iters):
        y = np.asarray(big_h) @ out.w
        phase = np.where(np.abs(y) > 0.0, np.angle(y), np.angle(out.w))
        out = Beamformer.from_phases(phase, config)
        q = float(np.real(np.vdot(out.w, np.asarray(big_h) @ out.w)))
        if abs(q - q_prev) < rel_tol * max(abs(q), 1e-300):
            break
        q_prev = q
    return out


@pytest.mark.parametrize("n_irs", [6, 40])
@pytest.mark.parametrize("seed", [21, 22, 23])
@pytest.mark.parametrize("rel_tol", [None, 0.0])
def test_solvers_bit_identical_to_reference_loops(seed, n_irs, rel_tol):
    # rel_tol=0 forces the full iteration cap, so every step is compared.
    tol = {} if rel_tol is None else {"rel_tol": rel_tol}
    config, channels, phases, beam = random_instance(
        seed, n=12, l=n_irs, k=5, m=3)
    ops = build_operators(channels, phases, beam, config)
    mm_out = mm_solve(ops, phases, **tol)
    mm_ref = reference_mm_solve(ops, phases, **tol)
    assert np.array_equal(mm_out.alpha, mm_ref.alpha)
    assert np.array_equal(mm_out.v, mm_ref.v)
    sca_out = sca_solve(ops.big_h, beam, config, **tol)
    sca_ref = reference_sca_solve(ops.big_h, beam, config, **tol)
    assert np.array_equal(sca_out.w, sca_ref.w)


def test_solvers_bit_identical_with_zero_gradient_entries():
    # MM: zero curvature and a linear term with zero entries make gamma
    # exactly zero there, so those elements must keep their phase.
    rng = trial_stream(24, 0)
    f12 = complex_normal(rng, (6,))
    f12[[0, 3]] = 0.0
    ops = SimpleNamespace(f11=np.zeros((6, 6), dtype=np.complex128), f12=f12)
    phases = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, 6))
    mm_out = mm_solve(ops, phases, rel_tol=0.0)
    assert np.array_equal(mm_out.alpha, reference_mm_solve(ops, phases, rel_tol=0.0).alpha)
    np.testing.assert_allclose(mm_out.alpha[[0, 3]], phases.alpha[[0, 3]],
                               rtol=0.0, atol=1e-14)

    # SCA: an antenna with no channel to anything gives a zero row and
    # column in H, so (H w)_0 is exactly zero at every step.
    config, channels, phases, beam = random_instance(24, n=5, l=6)
    h_br = channels.h_br.copy()
    h_d = channels.h_d.copy()
    h_br[:, 0] = 0.0
    h_d[:, 0] = 0.0
    channels = ChannelSet(h_br=h_br, h_ru=channels.h_ru, h_d=h_d)
    big_h = build_operators(channels, phases, beam, config).big_h
    assert not (big_h @ beam.w).all()
    sca_out = sca_solve(big_h, beam, config, rel_tol=0.0)
    assert np.array_equal(sca_out.w,
                          reference_sca_solve(big_h, beam, config, rel_tol=0.0).w)
    assert sca_out.w[0] == pytest.approx(beam.w[0], rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tx=st.integers(1, 8),
       n_irs=st.integers(1, 16), n_ehd=st.integers(1, 4),
       n_targets=st.integers(1, 3), rho=st.floats(0.0, 1.0),
       los_mode=st.sampled_from(["iid", "steering"]))
def test_solvers_ascend_and_stay_feasible(seed, n_tx, n_irs, n_ehd, n_targets,
                                         rho, los_mode):
    config, channels, phases, beam = random_instance(
        seed, n=n_tx, l=n_irs, k=n_ehd, m=n_targets, rho=rho,
        los_mode=los_mode)
    ops = build_operators(channels, phases, beam, config)
    before = composite_objective(channels, phases, beam, config)

    solved_v = mm_solve(ops, phases)
    after_v = composite_objective(channels, solved_v, beam, config)
    assert after_v >= before - 1e-9 * abs(before)
    assert solved_v.modulus_error() <= 1e-12

    solved_w = sca_solve(ops.big_h, beam, config)
    after_w = composite_objective(channels, phases, solved_w, config)
    assert after_w >= before - 1e-9 * abs(before)
    assert solved_w.modulus_error(config) <= 1e-12


# ---------------------------------------------------------------------------
# Cached target steering matrix


def test_target_steering_matrix_cached_and_read_only():
    config = SystemConfig(n_irs=7, delta=0.4)
    steer = target_steering_matrix(config.target_angles, config.n_irs,
                                   config.delta)
    expected = steering_matrix(np.asarray(config.target_angles), 7, 0.4)
    assert np.array_equal(steer, expected)
    assert not steer.flags.writeable
    with pytest.raises(ValueError):
        steer[0, 0] = 0.0
    assert target_steering_matrix(config.target_angles, 7, 0.4) is steer
