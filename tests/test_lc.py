"""Closed-form updates: the SCA beam step and the MM phase step."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iswpt import lc
from iswpt.lc import (MmProblem, mm_objective, mm_solve, mm_update_v,
                      sca_solve, sca_update_w)
from iswpt.objective import (Beamformer, DerivedOperators, PhaseProfile,
                             build_operators, composite_objective,
                             target_steering_matrix)
from iswpt.scenario import (ChannelSet, SystemConfig, complex_normal,
                            path_loss, sample_channels, steering_matrix,
                            trial_stream)


def random_psd(rng, n):
    a = complex_normal(rng, (n, n))
    mat = a.conj().T @ a
    return 0.5 * (mat + mat.conj().T)


def broadside_channels(config, rng):
    """Rician channels whose LoS part is the all-ones broadside response on
    every link, so h_br is rank one up to its scattered part and every
    device's LoS points at 0 degrees."""
    k_factor = config.rician_k
    w_los, w_nlos = (math.sqrt(x / (k_factor + 1.0)) for x in (k_factor, 1.0))

    def draw(shape, dist, ple):
        pl = path_loss(config.pl_ref, dist, ple)
        return math.sqrt(pl) * (w_los + w_nlos * complex_normal(rng, shape))
    n, l, k = config.n_tx, config.n_irs, config.n_ehd
    return ChannelSet(h_br=draw((l, n), config.dist_tx_irs, config.ple_tx_irs),
                      h_ru=draw((k, l), config.dist_irs_ehd, config.ple_irs_ehd),
                      h_d=draw((k, n), config.dist_tx_ehd, config.ple_tx_ehd))


def random_instance(seed, n=4, l=6, k=2, m=2, broadside=False, **overrides):
    angles = tuple(np.linspace(-1.0, 1.0, m))
    config = SystemConfig(n_tx=n, n_irs=l, n_ehd=k, n_targets=m,
                          target_angles=angles, seed=seed, **overrides)
    rng = trial_stream(seed, 0)
    channels = (broadside_channels if broadside else sample_channels)(config, rng)
    phases = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, l))
    beam = Beamformer.from_phases(rng.uniform(-np.pi, np.pi, n), config)
    return config, channels, phases, beam


def quad_form(big_h, w):
    return float(np.real(np.vdot(w, big_h @ w)))


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


def test_sca_solve_rejects_a_non_finite_beam():
    # Unchecked, one NaN entry came back as an all-NaN beamformer after the
    # full 50 steps, with no error.
    config, channels, phases, beam = random_instance(seed=4, n=3, l=4)
    big_h = build_operators(channels, phases, None, config).big_h
    with pytest.raises(ValueError, match="beam must be finite"):
        sca_solve(big_h, Beamformer(w=[np.nan, 1.0, 1.0]), config)


def test_sca_solve_rejects_non_hermitian_big_h():
    # Unchecked, the step no longer maximises a tangent plane of w^H H w,
    # so the ascent guarantee silently lapses.
    config, channels, phases, beam = random_instance(seed=4, n=3, l=4)
    big_h = build_operators(channels, phases, None, config).big_h.copy()
    big_h[0, 1] += 5.0
    with pytest.raises(ValueError, match="big_h is not Hermitian"):
        sca_solve(big_h, beam, config)


@pytest.mark.parametrize("shape", [(3, 3), (4, 5)])
def test_sca_solve_rejects_big_h_of_the_wrong_size(shape):
    # Unchecked, NumPy raised its own matmul or broadcast error, naming no input.
    config, channels, phases, beam = random_instance(seed=4, n=4, l=4)
    with pytest.raises(ValueError,
                       match=rf"big_h has shape \({shape[0]}, {shape[1]}\), "
                             r"expected \(4, 4\)"):
        sca_solve(np.eye(*shape), beam, config)


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
    # mm_solve checks its inputs once, at entry.
    flat = PhaseProfile(alpha=np.zeros(2))
    with pytest.raises(ValueError, match="big_f is not Hermitian"):
        mm_solve(SimpleNamespace(big_f=np.triu(np.ones((3, 3)))), flat)
    with pytest.raises(ValueError, match=r"big_f has shape \(2, 2\), expected \(3, 3\)"):
        mm_solve(SimpleNamespace(big_f=np.zeros((2, 2))), flat)


def test_mm_solve_rejects_big_f_of_the_wrong_size():
    # Unchecked, a 9 x 9 big_f with 6 phases solved a truncated problem.
    config, channels, phases, beam = random_instance(seed=9, l=8)
    ops = build_operators(channels, None, beam, config)
    with pytest.raises(ValueError, match=r"big_f has shape \(9, 9\), expected \(7, 7\)"):
        mm_solve(ops, PhaseProfile(alpha=phases.alpha[:6]))


@pytest.mark.parametrize("loop, match", [
    (dict(max_iters=0), "max_iters must be an int >= 1, got 0"),
    (dict(max_iters=-3), "max_iters must be an int >= 1, got -3"),
    (dict(rel_tol=float("nan")), "rel_tol must be finite"),
    (dict(rel_tol=-1e-6), "rel_tol must be finite"),
    (dict(rel_tol=float("inf")), "rel_tol must be finite"),
    (dict(max_iters=2.5, rel_tol=0.0), "max_iters must be an int >= 1, got 2.5"),
    (dict(max_iters=3.0), "max_iters must be an int >= 1, got 3.0"),
    (dict(max_iters=True), "max_iters must be an int >= 1, got True"),
], ids=["iters-0", "iters-neg", "tol-nan", "tol-neg", "tol-inf",
        "iters-fraction", "iters-float", "iters-bool"])
@pytest.mark.parametrize("solve", ["sca", "mm"])
def test_solves_reject_bad_loop_parameters(solve, loop, match):
    # Unchecked, a cap below 1 returned the start unsolved, a NaN or
    # negative rel_tol never stalled, so the solve ran to its cap, and
    # rel_tol=inf stopped after one map as if the solve had converged.  A
    # cap of 2.5 ran 3 MM maps, over the cap, and failed sca_solve with a
    # NumPy error naming no input.
    config, channels, phases, beam = random_instance(seed=6)
    ops = build_operators(channels, phases, beam, config)
    with pytest.raises(ValueError, match=match):
        if solve == "sca":
            sca_solve(ops.big_h, beam, config, **loop)
        else:
            mm_solve(ops, phases, **loop)


@pytest.mark.parametrize("field", ["f12", "v_prev"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_mm_problem_rejects_non_finite_vectors_by_name(field, bad):
    # Unchecked, a NaN in the linear term gave the MM step the phases [nan, 0, 0].
    # f12 is a column of big_f; v_prev is the starting point, the phases.
    big_f = np.eye(4, dtype=complex)
    big_f[:3, 3] = big_f[3, :3] = 1.0
    start = np.ones(3, dtype=complex)
    if field == "f12":
        big_f[0, 3] = bad
    else:
        start[0] = bad
    with pytest.raises(ValueError, match=("big_f" if field == "f12" else "phases")
                       + " must be finite"):
        mm_solve(SimpleNamespace(big_f=big_f), SimpleNamespace(v=start))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 12), l=st.integers(4, 40),
       rel_tol=st.sampled_from([lc.SCA_REL_TOL, lc.MM_REL_TOL]))
def test_validated_solves_return_the_checked_bits(seed, n, l, rel_tol):
    # validated=True skips the entry checks and changes nothing else.
    config, channels, phases, beam = random_instance(seed, n=n, l=l)
    ops = build_operators(channels, phases, beam, config)
    checked = sca_solve(ops.big_h, beam, config, rel_tol=rel_tol)
    unchecked = sca_solve(ops.big_h, beam, config, rel_tol=rel_tol, validated=True)
    assert np.array_equal(checked.w, unchecked.w)
    checked = mm_solve(ops, phases, rel_tol=rel_tol)
    unchecked = mm_solve(ops, phases, rel_tol=rel_tol, validated=True)
    assert np.array_equal(checked.v, unchecked.v)


def test_mm_step_with_flat_curvature():
    # F11 = 0 leaves only the linear term, so the update aligns v with f12.
    problem = MmProblem(f11=np.zeros((2, 2)), f12=np.array([1.0, 1.0j]),
                        v_prev=np.array([1.0 + 0.0j, 1.0 + 0.0j]),
                        direction=np.array([1.0, 1.0j]))
    out = mm_update_v(problem)
    np.testing.assert_allclose(out.v, [1.0, 1.0j], atol=1e-12)


def mm_problem(f11, f12, v):
    """The MM problem at v, its direction F11 v + f12 passed by hand."""
    return MmProblem(f11=f11, f12=f12, v_prev=v, direction=f11 @ v + f12)


def test_mm_zero_gamma_keeps_previous_iterate():
    rng = trial_stream(6, 0)
    v_prev = np.exp(1j * rng.uniform(-3.0, 3.0, 5))
    problem = MmProblem(f11=np.zeros((5, 5)), f12=np.zeros(5), v_prev=v_prev,
                        direction=np.zeros(5, dtype=complex))
    out = mm_update_v(problem)
    np.testing.assert_allclose(out.v, v_prev, atol=1e-14)


def test_mm_descent_on_random_problems():
    rng = trial_stream(7, 0)
    for _ in range(20):
        f11 = random_psd(rng, 6)
        f12 = complex_normal(rng, (6,))
        v = np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
        problem = mm_problem(f11, f12, v)
        g_prev = mm_objective(problem, v)
        for _ in range(30):
            v = mm_update_v(problem).v
            problem = mm_problem(f11, f12, v)
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
        assert g == pytest.approx(ops.big_f[-1, -1].real - j, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tx=st.integers(1, 8),
       n_irs=st.integers(1, 16), n_ehd=st.integers(1, 4),
       n_targets=st.integers(1, 3), rho=st.floats(0.0, 1.0))
@example(seed=5, n_tx=4, n_irs=3, n_ehd=4, n_targets=3, rho=0.5)
def test_mm_surrogate_tangent_and_dominating(seed, n_tx, n_irs, n_ehd,
                                             n_targets, rho):
    # The tangent plane (T = 0) of g at v0 majorises g at any L, also for
    # L < K+M, where F11 can be full rank and the eigenvalue shift was
    # tighter: the plane minus g is the PSD form of the step v - v0, which
    # is nonnegative and vanishes to second order at v0.
    config, channels, phases, beam = random_instance(
        seed, n=n_tx, l=n_irs, k=n_ehd, m=n_targets, rho=rho)
    ops = build_operators(channels, None, beam, config)
    problem = MmProblem.from_operators(ops, phases)
    v0 = phases.v
    grad = problem.f11 @ v0 + problem.f12
    g0 = mm_objective(problem, phases.v)
    scale = max(1.0, abs(g0), float(np.abs(problem.f11).sum()))
    rng = trial_stream(seed, 1)
    for v in np.exp(1j * rng.uniform(-np.pi, np.pi, (100, n_irs))):
        step = v - v0
        slack = (g0 - 2.0 * float(np.real(np.vdot(step, grad)))
                 - mm_objective(problem, v))
        assert slack >= -1e-12 * scale
        assert slack == pytest.approx(np.real(np.vdot(step, problem.f11 @ step)),
                                      abs=1e-12 * scale)


def test_mm_matches_exhaustive_grid_minimum():
    # Iterated MM lands within 2% of the best 8-level quantized profile.
    rng = trial_stream(10, 0)
    levels, dim = 8, 6
    grid = -np.pi + 2.0 * np.pi * np.arange(levels) / levels
    combos = np.array(list(itertools.product(range(levels), repeat=dim)))
    v_all = np.exp(1j * grid[combos])

    for trial in range(3):
        f11 = random_psd(rng, dim)
        f12 = complex_normal(rng, (dim,)).conj()
        quad = np.einsum("bl,lk,bk->b", v_all.conj(), f11, v_all).real
        lin = (v_all.conj() @ f12).real
        g_grid_min = float(np.min(-(quad + 2.0 * lin)))

        v = np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
        problem = mm_problem(f11, f12, v)
        for _ in range(500):
            v = mm_update_v(problem).v
            problem = mm_problem(f11, f12, v)
        g_mm = mm_objective(problem, v)
        assert g_mm <= g_grid_min + 0.02 * abs(g_grid_min)


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
# The references below are written from the algorithms' formulas, not from
# `lc`: every step projects y = M x + b onto the constant-modulus set as
# amp * y / |y|, computed as y / (|y| / amp) with an np.abs mask, and keeps
# x's entry where y = 0.  Both solves are SQUAREM (SqS3, Varadhan & Roland
# 2008) over their step, here a descent on g (g = -w^H H w for SCA): two
# plain maps x1 = F(x0), x2 = F(x1); r = x1 - x0, d = x2 - 2 x1 + x0,
# a = -max(|r| / |d|, 1); one map from the projection of
# x0 - 2 a r + a^2 d (x2's entry where it is zero), kept only if its g is
# no higher than g(x2).  Every map counts against max_iters; a cycle the
# cap would cut short, or one with d = 0, skips the extrapolation.  It
# stops when g stalls after a cycle's first map or across the cycle.  The
# solvers must reproduce the references bit for bit.
#
# The MM references take their steps in u = conj(v), on the conjugated
# lifted matrix big_f.conj(): an independent route to the same vectors, in
# which y = conj(conj(F11) u + conj(f12)) and g is scored from y as
# -Re(u^H (conj(y) + conj(f12))).


def reference_project(y, fallback, amp=1.0):
    mod = np.abs(y) / amp
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mod > 0.0, y / mod, fallback)


def reference_alpha(v):
    """arg(v) in [-pi, pi): np.angle with +pi folded to -pi."""
    alpha = np.angle(v)
    return np.where(alpha == np.pi, -np.pi, alpha)


def reference_sqs3(plain, project, vector, start, max_iters, rel_tol):
    """SqS3 descent from start = (x, g(x)): plain(x) is one map and its g,
    project(y, x2) the iterate at the projection of the extrapolated y,
    vector(x) its entries."""
    budget = [max_iters]

    def counted(x):
        budget[0] -= 1
        return plain(x)

    def stalled(g_new, g_old):
        return abs(g_new - g_old) < rel_tol * max(abs(g_old), 1e-300)

    current, g_current = start
    while budget[0] > 0:
        first, g_first = counted(current)
        if budget[0] == 0 or stalled(g_first, g_current):
            return first
        second, g_second = counted(first)
        v0, v1, v2 = vector(current), vector(first), vector(second)
        r = v1 - v0
        d = v2 - 2.0 * v1 + v0
        best, g_best = second, g_second
        if budget[0] > 0 and np.linalg.norm(d) != 0.0:
            a = -max(np.linalg.norm(r) / np.linalg.norm(d), 1.0)
            third, g_third = counted(project(v0 - 2.0 * a * r + a * a * d, v2))
            if g_third <= g_second:
                best, g_best = third, g_third
        if stalled(g_best, g_current):
            return best
        current, g_current = best, g_best
    return current


def reference_mm_solve(big_f_conj, v_start, max_iters=50, rel_tol=1e-6):
    """MM on the conjugated lifted matrix, from and to unit vectors v."""
    l_dim = v_start.size
    f11, f12 = big_f_conj[:l_dim, :l_dim], big_f_conj[:l_dim, l_dim]

    def direction_and_g(v):
        u = v.conj()
        y_u = f11 @ u + f12
        return y_u.conj(), -float(np.real(np.vdot(u, y_u + f12)))

    def plain(state):
        v, y = state
        v_new = reference_project(y, v)
        y_new, g_new = direction_and_g(v_new)
        return (v_new, y_new), g_new

    def project(y_jump, v2):
        v = reference_project(y_jump, v2)
        return v, direction_and_g(v)[0]

    y0, g0 = direction_and_g(v_start)
    return reference_sqs3(plain, project, lambda state: state[0],
                          ((v_start, y0), g0), max_iters, rel_tol)[0]


def reference_sca_solve(big_h, beam, config, max_iters=50, rel_tol=1e-9):
    big_h = np.asarray(big_h)
    amp = config.beam_amplitude

    def g(w):
        return -float(np.real(np.vdot(w, big_h @ w)))

    def plain(w):
        w_new = reference_project(big_h @ w, w, amp)
        return w_new, g(w_new)

    return reference_sqs3(plain, lambda y, w2: reference_project(y, w2, amp),
                          lambda w: w, (beam.w, g(beam.w)), max_iters, rel_tol)


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
    mm_ref = reference_mm_solve(ops.big_f.conj(), phases.v, **tol)
    assert np.array_equal(mm_out.v, mm_ref)
    assert np.array_equal(mm_out.alpha, reference_alpha(mm_ref))
    sca_out = sca_solve(ops.big_h, beam, config, **tol)
    sca_ref = reference_sca_solve(ops.big_h, beam, config, **tol)
    assert np.array_equal(sca_out.w, sca_ref)


def test_solvers_bit_identical_with_zero_gradient_entries():
    # MM: zero curvature and a linear term with zero entries make the
    # gradient exactly zero there, so those elements must keep their phase.
    rng = trial_stream(24, 0)
    f12 = complex_normal(rng, (6,))
    f12[[0, 3]] = 0.0
    big_f = np.zeros((7, 7), dtype=np.complex128)
    big_f[:6, 6], big_f[6, :6] = f12, f12.conj()
    phases = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, 6))
    mm_out = mm_solve(SimpleNamespace(big_f=big_f), phases, rel_tol=0.0)
    mm_ref = reference_mm_solve(big_f.conj(), phases.v, rel_tol=0.0)
    assert np.array_equal(mm_out.v, mm_ref)
    assert np.array_equal(mm_out.alpha, reference_alpha(mm_ref))
    np.testing.assert_allclose(mm_out.alpha[[0, 3]], phases.alpha[[0, 3]],
                               rtol=0.0, atol=1e-14)
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
                          reference_sca_solve(big_h, beam, config, rel_tol=0.0))
    assert sca_out.w[0] == pytest.approx(beam.w[0], rel=1e-14)


def reference_sqs3_jump(x0, x1, x2, amp):
    """`lc.sqs3_jump` through np.linalg.norm and the projection y / (|y| / amp)."""
    r, d = x1 - x0, x2 - 2.0 * x1 + x0
    if not np.linalg.norm(d) > 0.0:
        return None
    a = -max(np.linalg.norm(r) / np.linalg.norm(d), 1.0)
    return reference_project(x0 - 2.0 * a * r + a * a * d, x2, amp)


@settings(max_examples=90, deadline=None)
@given(n=st.sampled_from([12, 41, 52]), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "near-line", "few-move", "still"]),
       scale=st.floats(1e-3, 1e3))
def test_sqs3_jump_bit_identical_to_norm_and_angle(n, seed, kind, scale):
    # Stacked states of 12 beam and 40 phase entries, a phase side of 40 or
    # 41 and the beam side alone.  "near-line" iterates make the step ratio
    # large, "few-move" ones leave most entries of d at zero, and "still"
    # ones make d = 0, where the jump is None.
    rng = np.random.default_rng(seed)
    x0 = scale * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    step = scale * 1e-3 * complex_normal(rng, (n,))
    if kind == "few-move":
        step[rng.permutation(n)[3:]] = 0.0
    x1 = x0 + step
    x2 = {"random": scale * np.exp(1j * rng.uniform(-np.pi, np.pi, n)),
          "near-line": x1 + step * (1.0 + 1e-6 * rng.standard_normal(n)),
          "few-move": x1 + 0.5 * step,
          "still": x0}[kind]
    if kind == "still":
        x1 = x0
    got, want = lc.sqs3_jump(x0, x1, x2, scale), reference_sqs3_jump(x0, x1, x2, scale)
    if want is None:
        assert got is None
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (want is None) == (kind == "still")


@pytest.mark.parametrize("max_iters", [1, 2])
@pytest.mark.parametrize("rel_tol", [None, 0.0])
def test_mm_solve_small_caps_are_plain_steps(max_iters, rel_tol):
    # A cap of 1 or 2 leaves no room for the extrapolated map, in either
    # solve: they share one loop.
    tol = {} if rel_tol is None else {"rel_tol": rel_tol}
    config, channels, phases, beam = random_instance(25, n=12, l=40, k=5, m=3)
    ops = build_operators(channels, None, beam, config)
    plain = phases
    for _ in range(max_iters):
        plain = mm_update_v(MmProblem.from_operators(ops, plain))
    solved = mm_solve(ops, phases, max_iters=max_iters, **tol)
    assert np.array_equal(solved.alpha, plain.alpha)
    assert np.array_equal(solved.v, plain.v)

    big_h = build_operators(channels, phases, None, config).big_h
    plain_w = beam
    for _ in range(max_iters):
        plain_w = sca_update_w(big_h, plain_w, config)
    solved_w = sca_solve(big_h, beam, config, max_iters=max_iters, **tol)
    assert np.array_equal(solved_w.w, plain_w.w)


@pytest.mark.parametrize("max_iters", [1, 2, 3, 4, 5, 6, 7, None])
def test_mm_solve_caps_map_evaluations(monkeypatch, max_iters):
    # Every map, plain or from the extrapolated point, is one kernel call
    # (mm_update_v or sca_update_w) and counts against max_iters.  With
    # rel_tol=0 no stop test fires, so small caps are used to the last map.
    calls = []

    def counted(kernel):
        def call(*args):
            calls.append(args)
            return kernel(*args)
        return call

    monkeypatch.setattr(lc, "mm_update_v", counted(mm_update_v))
    monkeypatch.setattr(lc, "sca_update_w", counted(sca_update_w))
    config, channels, phases, beam = random_instance(26, n=12, l=40, k=5, m=3)
    ops = build_operators(channels, phases, beam, config)
    cap = {} if max_iters is None else {"max_iters": max_iters}
    limit = 50 if max_iters is None else max_iters
    for solve in (lambda **kw: mm_solve(ops, phases, **kw),
                  lambda **kw: sca_solve(ops.big_h, beam, config, **kw)):
        calls.clear()
        solve(**cap)
        assert 0 < len(calls) <= limit
        calls.clear()
        solve(rel_tol=0.0, **cap)
        if max_iters is None:
            assert len(calls) <= limit
        else:
            assert len(calls) == limit


@pytest.mark.parametrize("max_iters", [1, 2, 3, 7, 50])
@pytest.mark.parametrize("rel_tol", [None, 0.0])
def test_mm_solve_takes_one_f11_product_per_plain_map(monkeypatch, max_iters, rel_tol):
    # The product that anchors the problem at a new iterate also scores it:
    # one F11 product for the start, one per plain map, and two per jump map
    # (one at the jump, one at the map from it).
    products, maps, jumps = [], [], []

    class CountedMatrix(np.ndarray):
        def __matmul__(self, other):
            products.append(other.shape)
            return np.asarray(self) @ other

    def spy(kernel, calls):
        def call(*args):
            out = kernel(*args)
            calls.append(out)
            return out
        return call

    monkeypatch.setattr(lc, "mm_update_v", spy(mm_update_v, maps))
    monkeypatch.setattr(lc, "sqs3_jump", spy(lc.sqs3_jump, jumps))
    config, channels, phases, beam = random_instance(27, n=12, l=40, k=5, m=3)
    big_f = build_operators(channels, None, beam, config).big_f
    tol = {} if rel_tol is None else {"rel_tol": rel_tol}
    solved = mm_solve(SimpleNamespace(big_f=big_f.view(CountedMatrix)), phases,
                      max_iters=max_iters, **tol)
    n_jumps = sum(jump is not None for jump in jumps)
    assert len(maps) <= max_iters and (n_jumps > 0) == (len(maps) > 2)
    assert len(products) == 1 + len(maps) + n_jumps
    assert np.array_equal(solved.v, mm_solve(SimpleNamespace(big_f=big_f), phases,
                                             max_iters=max_iters, **tol).v)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tx=st.integers(1, 8),
       n_irs=st.integers(1, 16), n_ehd=st.integers(1, 4),
       n_targets=st.integers(1, 3), rho=st.floats(0.0, 1.0),
       broadside=st.booleans())
def test_solvers_ascend_and_stay_feasible(seed, n_tx, n_irs, n_ehd, n_targets,
                                         rho, broadside):
    config, channels, phases, beam = random_instance(
        seed, n=n_tx, l=n_irs, k=n_ehd, m=n_targets, rho=rho,
        broadside=broadside)
    ops = build_operators(channels, phases, beam, config)
    before = composite_objective(channels, phases, beam, config)

    solved_v = mm_solve(ops, phases)
    after_v = composite_objective(channels, solved_v, beam, config)
    assert after_v >= before - 1e-9 * abs(before)
    assert solved_v.modulus_error() <= 1e-12
    # In either solve the extrapolation is kept only when it beats the plain
    # double step, so the solve never ends below one plain step.
    one_step = mm_update_v(MmProblem.from_operators(ops, phases))
    after_one = composite_objective(channels, one_step, beam, config)
    assert after_v >= after_one - 1e-9 * abs(after_one)

    solved_w = sca_solve(ops.big_h, beam, config)
    after_w = composite_objective(channels, phases, solved_w, config)
    assert after_w >= before - 1e-9 * abs(before)
    assert solved_w.modulus_error(config) <= 1e-12
    one_step_w = sca_update_w(ops.big_h, beam, config)
    after_one_w = composite_objective(channels, phases, one_step_w, config)
    assert after_w >= after_one_w - 1e-9 * abs(after_one_w)


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


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("exponent", [-700, -1040])
def test_solves_step_at_scales_near_the_end_of_the_float_range(seed, exponent):
    # Operators at 2**-1040 hold subnormal entries: a step's y / (|y| / amp)
    # took the reciprocal of a subnormal |y|, and an lc run of `iswpt
    # sweep-l` at distances of 1e123 m exited 5 on an infinite beam.  A
    # solve starting below `_TINY_SCORE` rescales its operators by a power
    # of two first; at 2**-700, where that is exact, it keeps every bit.
    config, channels, phases, beam = random_instance(seed, l=8)
    ops = build_operators(channels, phases, beam, config)
    scale = math.ldexp(1.0, exponent // 2) * math.ldexp(1.0, exponent - exponent // 2)
    tiny = DerivedOperators(big_h=ops.big_h * scale, big_f=ops.big_f * scale)
    beams = [sca_solve(big_h, beam, config) for big_h in (ops.big_h, tiny.big_h)]
    profiles = [mm_solve(o, phases) for o in (ops, tiny)]
    assert beams[1].modulus_error(config) <= 1e-12 * config.beam_amplitude
    assert profiles[1].modulus_error() <= 1e-12
    if exponent == -700:
        assert np.array_equal(beams[0].w, beams[1].w)
        assert np.array_equal(profiles[0].v, profiles[1].v)


@pytest.mark.parametrize("solve", ["sca_solve", "mm_solve"])
def test_solves_rescale_a_start_score_that_overflows(solve):
    # Operators of 1e307 are finite and Hermitian, but their products
    # overflow, so the start score is not finite.  A solve with such a
    # start rescales its operators by a power of two first, so it returns
    # finite values, the bits of the same solve on the operators times
    # 2**-1020.
    config = SystemConfig(n_tx=3, n_irs=4)

    def run(entry):
        if solve == "sca_solve":
            beam = Beamformer.from_phases(np.zeros(3), config)
            return sca_solve(np.full((3, 3), entry) + 0j, beam, config).w
        ops = DerivedOperators(big_h=None, big_f=np.full((5, 5), entry) + 0j)
        return mm_solve(ops, PhaseProfile(alpha=np.zeros(4))).v

    with np.errstate(over="ignore", invalid="ignore"):
        huge = run(1e307)
    assert np.isfinite(huge).all()
    assert np.array_equal(huge, run(1e307 * 2.0 ** -1020))
