"""Diagonally constrained SDP solver and rank-one extraction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iswpt.ao import ALGORITHM_SDP, AoConfig, run_ao
from iswpt.objective import (Beamformer, PhaseProfile, build_operators,
                             composite_objective, hermitian_part, project)
from iswpt.oracle import SearchBudget, quantized_phase_search
from iswpt.scenario import (SystemConfig, complex_normal, sample_channels,
                            trial_stream)
from iswpt import lc, sdp
from iswpt.sdp import (SdpNonConvergence, _candidates, _max_steps,
                       extract_beamformer, extract_phases, sdp_update_v,
                       sdp_update_w, solve_diag_sdp)


def random_psd(rng, n):
    a = complex_normal(rng, (n, n))
    mat = a.conj().T @ a
    return 0.5 * (mat + mat.conj().T)


def lifted_phase_score(big_f, v):
    """x^H big_f x with x = [v; 1]: the score that extract_phases
    maximises, and J for the big_f of `build_operators`."""
    x = np.append(v, 1.0)
    return float(np.real(np.vdot(x, big_f @ x)))


def random_hermitian(rng, n):
    a = complex_normal(rng, (n, n))
    return 0.5 * (a + a.conj().T)


def small_config(n=4, l=6, p0=1.0, **overrides):
    return SystemConfig(n_tx=n, n_irs=l, n_ehd=2, n_targets=2,
                        target_angles=(-0.5, 0.5), p0=p0, **overrides)


# ---------------------------------------------------------------------------
# Solver on problems with known optima


def test_solver_diagonal_cost():
    # Off-diagonals never enter the objective, so the value is the trace of
    # the cost against the fixed diagonal.
    solution = solve_diag_sdp(np.diag([3.0, -1.0, 2.0]), np.ones(3))
    assert solution.objective == pytest.approx(4.0, abs=1e-6)


def test_solver_all_ones_cost():
    solution = solve_diag_sdp(np.ones((3, 3)), np.ones(3))
    assert solution.objective == pytest.approx(9.0, rel=1e-6)
    np.testing.assert_allclose(solution.x_opt, np.ones((3, 3)), atol=1e-4)


def test_solver_exchange_cost():
    solution = solve_diag_sdp(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))
    assert solution.objective == pytest.approx(2.0, rel=1e-6)
    np.testing.assert_allclose(solution.x_opt.real, np.ones((2, 2)), atol=1e-4)


def test_solver_rank_one_cost_analytic_optimum():
    # For cost u u^H, |X_ij| <= sqrt(b_i b_j) bounds the value by
    # (sum_i sqrt(b_i) |u_i|)^2, attained by the aligned rank-one X.
    rng = trial_stream(20, 0)
    for _ in range(5):
        u = complex_normal(rng, (6,))
        b = rng.uniform(0.5, 2.0, 6)
        cost = np.outer(u, u.conj())
        cost = 0.5 * (cost + cost.conj().T)
        expected = float(np.sum(np.sqrt(b) * np.abs(u)) ** 2)
        solution = solve_diag_sdp(cost, b)
        assert solution.objective == pytest.approx(expected, rel=1e-6)


def test_solver_certificates_on_random_instances():
    rng = trial_stream(21, 0)
    for _ in range(5):
        cost = random_hermitian(rng, 7)
        b = rng.uniform(0.5, 2.0, 7)
        solution = solve_diag_sdp(cost, b, tol=1e-8)
        scale = max(1.0, abs(solution.objective))
        assert solution.primal_residual <= 1e-8
        assert solution.duality_gap <= 1e-7 * scale
        assert solution.duality_gap >= -1e-9 * scale
        np.testing.assert_allclose(np.diag(solution.x_opt).real, b, atol=1e-6)
        min_eig = float(np.linalg.eigvalsh(solution.x_opt)[0])
        assert min_eig >= -1e-8 * np.linalg.norm(solution.x_opt)


def test_solver_matches_cvxpy():
    cp = pytest.importorskip("cvxpy")
    rng = trial_stream(22, 0)
    cost = random_hermitian(rng, 5)
    b = rng.uniform(0.5, 2.0, 5)
    x = cp.Variable((5, 5), hermitian=True)
    prob = cp.Problem(cp.Maximize(cp.real(cp.trace(cost @ x))),
                      [cp.diag(x) == b, x >> 0])
    prob.solve()
    ours = solve_diag_sdp(cost, b)
    assert ours.objective == pytest.approx(prob.value, rel=1e-5)


def test_solver_deterministic():
    rng = trial_stream(23, 0)
    cost = random_hermitian(rng, 5)
    first = solve_diag_sdp(cost, np.ones(5))
    second = solve_diag_sdp(cost, np.ones(5))
    assert first.objective == second.objective
    assert np.array_equal(first.x_opt, second.x_opt)


def test_solver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_diag_sdp(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2))
    with pytest.raises(ValueError):
        solve_diag_sdp(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        solve_diag_sdp(np.zeros((3, 3)), np.ones(2))
    # A matrix of diagonal values, or none at all, once failed inside the
    # solver with a NumPy error naming no input.
    with pytest.raises(ValueError, match="diag_values"):
        solve_diag_sdp(np.eye(4), np.ones((2, 2)))
    with pytest.raises(ValueError, match="diag_values"):
        solve_diag_sdp(np.zeros((0, 0)), np.ones(0))
    # tol=inf once returned the starting point as a solution: objective 3.0
    # on this all-ones cost, whose optimum is 9.
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            solve_diag_sdp(np.ones((3, 3)), np.ones(3), tol=tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solver_rejects_non_finite_inputs(bad):
    cost = np.eye(3, dtype=complex)
    cost[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        solve_diag_sdp(cost, np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        solve_diag_sdp(np.eye(3), np.array([1.0, bad, 1.0]))


def pinned_problem(n):
    """(cost, diag_values) of the pinned instance of size n."""
    rng = trial_stream(34, n)
    cost = random_hermitian(rng, n)
    return cost, rng.uniform(0.5, 2.0, n)


@pytest.mark.parametrize("n, iterations, objective", [
    pytest.param(12, 10, 40.906296715902, id="n12"),
    pytest.param(41, 11, 359.19931100163, id="n41"),
])
def test_solver_pinned_instances(n, iterations, objective):
    # Pins the iterate sequence: a change to the direction, the step rule
    # or the stopping rule moves the count or the optimum found.
    solution = solve_diag_sdp(*pinned_problem(n))
    assert solution.iterations == iterations
    assert solution.objective == pytest.approx(objective, rel=1e-9)


@pytest.mark.parametrize("n, tol, iterations, objective", [
    pytest.param(12, AoConfig.sdp_tol, 5, 40.902199769753, id="n12"),
    pytest.param(41, AoConfig.sdp_tol, 6, 359.14797793659, id="n41"),
    pytest.param(12, AoConfig.sdp_start_tol, 4, 40.867565406314, id="n12-start_tol"),
    pytest.param(41, AoConfig.sdp_start_tol, 4, 355.57792681501, id="n41-start_tol"),
])
def test_solver_pinned_instances_at_ao_tol(n, tol, iterations, objective):
    # The same instances at the AO's tightest tolerance, AoConfig.sdp_tol =
    # 1e-4, and at its loosest, the first map's sdp_start_tol.
    solution = solve_diag_sdp(*pinned_problem(n), tol=tol)
    assert solution.iterations == iterations
    assert solution.objective == pytest.approx(objective, rel=1e-9)


def test_solver_pinned_failure_snapshot(monkeypatch):
    # The iteration cap reports the iterate its last pass started from,
    # not the one that pass stepped to.
    monkeypatch.setattr(sdp, "MAX_ITERS", 3)
    with pytest.raises(SdpNonConvergence) as info:
        solve_diag_sdp(*pinned_problem(12), tol=1e-300)
    best = info.value.solution
    assert best.iterations == 2
    assert best.objective == pytest.approx(31.603921903843, rel=1e-9)
    assert best.duality_gap == pytest.approx(14.043463350131, rel=1e-9)
    assert best.primal_residual == pytest.approx(9.7516767628793e-15, rel=1e-6)
    assert info.value.rel_gap == pytest.approx(0.17872783749137, rel=1e-9)


def bisect_max_step(pos_def, direction):
    """Largest t keeping pos_def + t*direction Cholesky-factorable."""
    def ok(t):
        try:
            np.linalg.cholesky(pos_def + t * direction)
            return True
        except np.linalg.LinAlgError:
            return False
    lo, hi = 0.0, 1.0
    while ok(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def test_max_steps_match_cholesky_bisection():
    # The primal direction is a full Hermitian matrix, the dual one the
    # diagonal of Diag(dz).
    rng = trial_stream(35, 0)
    for n in (3, 12, 41):
        pos_defs = np.stack([random_psd(rng, n) + 0.1 * np.eye(n) for _ in range(2)])
        dx = random_hermitian(rng, n)
        dz = rng.uniform(-1.0, 1.0, n)
        inv_factors = np.linalg.inv(np.linalg.cholesky(pos_defs))
        steps = _max_steps(inv_factors, dx, dz)
        for k, direction in enumerate((dx, np.diag(dz))):
            assert steps[k] == pytest.approx(
                bisect_max_step(pos_defs[k], direction), rel=1e-6)
        # A PSD direction never leaves the cone.
        steps = _max_steps(inv_factors, random_psd(rng, n), rng.uniform(0.0, 1.0, n))
        assert np.all(steps == np.inf)


def test_solver_tests_the_corrector_step_only(monkeypatch):
    # A solve of k >= 1 passes makes exactly k exact step tests, one per
    # corrector: the predictor's lengths are never tested, cold or warm.
    calls = []
    max_steps = sdp._max_steps

    def counting_max_steps(*args):
        calls.append(args)
        return max_steps(*args)

    monkeypatch.setattr(sdp, "_max_steps", counting_max_steps)
    for n in (12, 41):
        cost, b = pinned_problem(n)
        cold = solve_diag_sdp(cost, b, tol=1e-4)
        nearby = cost + 0.01 * random_hermitian(trial_stream(36, n), n)
        for warm in (None, cold):
            for tol in (1e-4, 1e-7):
                calls.clear()
                solution = solve_diag_sdp(nearby, b, tol=tol, warm=warm)
                assert solution.iterations >= 1
                assert len(calls) == solution.iterations


def test_solver_nonconvergence_carries_best_iterate():
    with pytest.raises(SdpNonConvergence) as info:
        solve_diag_sdp(np.ones((3, 3)), np.ones(3), tol=1e-300)
    assert info.value.rel_gap > 0.0
    best = info.value.solution
    # The stalled iterate is still a nearly optimal feasible point.
    assert best.objective == pytest.approx(9.0, rel=1e-3)


# ---------------------------------------------------------------------------
# Solver against the reference loop
#
# The reference is the interior-point loop written directly from its
# formulas: it forms XS, takes Re tr(C X), Re tr(X S) and the predicted
# gap from full products, puts -XS into both right-hand sides, and tests
# each step length on L^{-1} D L^{-H} with two products for either side.
# The predictor's lengths are never tested: each pass takes them from the
# previous corrector's test (1 in the first pass).  The solver must follow it
# up to rounding: the same iteration count and the same objective to 1e-9
# relative.


def reference_max_steps(inv_factors, directions):
    w = inv_factors @ directions @ inv_factors.conj().swapaxes(-1, -2)
    w = 0.5 * (w + w.conj().swapaxes(-1, -2))
    lam_min = np.linalg.eigvalsh(w)[:, 0]
    steps = np.full(lam_min.shape, np.inf)
    np.divide(-1.0, lam_min, out=steps, where=lam_min < 0.0)
    return steps


def reference_solve_diag_sdp(cost, b, tol):
    """(iterations, primal value, dual value) of the reference loop."""
    herm = lambda a: 0.5 * (a + a.conj().T)
    n = b.size
    cost = herm(np.asarray(cost, dtype=np.complex128))
    c_scale = float(np.max(np.abs(cost)))
    if c_scale == 0.0:
        return 0, 0.0, 0.0
    cost = cost / c_scale
    eye = np.eye(n)
    x = np.diag(b).astype(np.complex128)
    z = np.sum(np.abs(cost), axis=1) + 0.1
    s = np.diag(z) - cost
    corrector_steps = np.ones(2)
    for iteration in range(1, sdp.MAX_ITERS + 1):
        r_p = b - np.real(np.diag(x))
        primal_res = float(np.max(np.abs(r_p))) / (1.0 + float(np.max(b)))
        primal_obj = float(np.real(np.trace(cost @ x)))
        dual_obj = float(b @ z)
        xs = x @ s
        gap = float(np.real(np.trace(xs)))
        rel_gap = abs(gap) / (1.0 + abs(primal_obj) + abs(dual_obj))
        if rel_gap <= tol and primal_res <= tol:
            return iteration - 1, primal_obj * c_scale, dual_obj * c_scale
        inv_factors = np.linalg.inv(np.linalg.cholesky(np.stack([x, s])))
        s_inv = herm(inv_factors[1].conj().T @ inv_factors[1])
        m_mat = np.real(x * s_inv.conj())
        m_mat = 0.5 * (m_mat + m_mat.T) + (1e-14 * float(np.max(np.abs(m_mat))) + 1e-300) * eye

        def direction(r_mat):
            rhs = np.real(np.sum(r_mat * s_inv.T, axis=1)) - r_p
            dz = np.linalg.solve(m_mat, rhs)
            return herm((r_mat - x * dz) @ s_inv), dz

        dx_aff, dz_aff = direction(-xs)
        ap_aff, ad_aff = np.minimum(1.0, corrector_steps)
        gap_aff = float(np.real(np.trace(
            (x + ap_aff * dx_aff) @ (s + ad_aff * np.diag(dz_aff)))))
        sigma = min(0.99, max((max(gap_aff, 0.0) / gap) ** 3, 1e-8))
        dx, dz = direction(sigma * gap / n * eye - xs - dx_aff * dz_aff)
        corrector_steps = reference_max_steps(inv_factors, np.stack([dx, np.diag(dz)]))
        ap, ad = np.minimum(1.0, 0.98 * corrector_steps)
        x = herm(x + ap * dx)
        z = z + ad * dz
        s = np.diag(z) - cost
    raise AssertionError("reference loop did not converge")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 41),
       rank=st.sampled_from([None, 1, 2, 3, 5, 8]),
       tol=st.sampled_from([1e-4, 1e-7]))
def test_solver_follows_reference_loop(seed, n, rank, tol):
    # Full-rank Hermitian costs (rank None), and Gram costs of rank <= 8
    # with the corner zeroed, as sdp_update_v passes them.
    rng = trial_stream(40, seed)
    if rank is None:
        cost = random_hermitian(rng, n)
    else:
        rows = complex_normal(rng, (rank, n))
        cost = rows.conj().T @ rows
        cost = 0.5 * (cost + cost.conj().T)
        cost[-1, -1] = 0.0
    b = rng.uniform(0.5, 2.0, n)
    solution = solve_diag_sdp(cost, b, tol=tol)
    iterations, ref_primal, ref_dual = reference_solve_diag_sdp(cost, b, tol)
    assert solution.iterations == iterations
    assert solution.objective == pytest.approx(ref_primal, rel=1e-9, abs=1e-300)
    dual = solution.objective + solution.duality_gap
    assert dual == pytest.approx(ref_dual, rel=1e-9, abs=1e-300)
    slack = 1e-12 * abs(dual)
    assert dual >= solution.objective - slack
    assert dual >= ref_primal - slack


# ---------------------------------------------------------------------------
# Warm start


def random_cost(rng, n, rank):
    """A full-rank Hermitian cost (rank None), or a Gram cost of the given
    rank with the corner zeroed, as sdp_update_v passes them."""
    if rank is None:
        return random_hermitian(rng, n)
    rows = complex_normal(rng, (rank, n))
    cost = rows.conj().T @ rows
    cost = 0.5 * (cost + cost.conj().T)
    cost[-1, -1] = 0.0
    return cost


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 41),
       rank=st.sampled_from([None, 1, 2, 3, 5, 8]),
       tol=st.sampled_from([1e-4, 1e-7]), step=st.sampled_from([1e-3, 1e-2, 1e-1]))
def test_warm_start_keeps_the_dual_bound(seed, n, rank, tol, step):
    # Started from the solution of a perturbed cost, the solve reaches the
    # cold solve's dual value within its stop rule's tolerance, and its dual
    # vector stays feasible, so the value bounds every feasible point: here
    # the projected principal eigenvector of its own X.
    rng = trial_stream(41, seed)
    cost = random_cost(rng, n, rank)
    b = rng.uniform(0.5, 2.0, n)
    c_scale = float(np.max(np.abs(cost)))
    nearby = solve_diag_sdp(cost + step * c_scale * random_hermitian(rng, n), b, tol=tol)
    cold = solve_diag_sdp(cost, b, tol=tol)
    warm = solve_diag_sdp(cost, b, tol=tol, warm=nearby)
    dual_cold = cold.objective + cold.duality_gap
    dual_warm = warm.objective + warm.duality_gap
    assert abs(dual_warm - dual_cold) <= tol * (c_scale + abs(cold.objective) + abs(dual_cold))
    assert dual_warm == pytest.approx(float(b @ warm.dual), rel=1e-12)
    rounding = 1e-12 * c_scale * float(b.sum())
    assert np.linalg.eigvalsh(np.diag(warm.dual) - cost)[0] >= -rounding
    principal = np.linalg.eigh(warm.x_opt)[1][:, -1]
    x = np.sqrt(b) * np.exp(1j * np.angle(principal))
    assert float(np.real(np.vdot(x, cost @ x))) <= dual_warm + rounding


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.sampled_from([12, 21, 41]),
       rank=st.integers(1, 8), side=st.sampled_from(["beam", "phase"]),
       warm=st.booleans())
def test_untested_predictor_keeps_the_certificates(seed, n, rank, side, warm):
    # Gram costs of at most 8 rows, as both half-steps build them (the phase
    # side with its corner zeroed and a unit diagonal), solved cold or from
    # the solution of a neighbour with perturbed rows.  Only the corrector's
    # step is tested, and that keeps the dual feasible and X PSD, so the
    # dual value bounds the extracted candidate's lifted score.
    rng = trial_stream(42, seed)
    rows = complex_normal(rng, (rank, n))
    config = small_config(n=n)

    def gram(r):
        cost = hermitian_part(r.conj().T @ r)
        if side == "phase":
            cost[-1, -1] = 0.0
        return cost

    cost = gram(rows)
    b = np.ones(n) if side == "phase" else np.full(n, config.per_antenna_power)
    start = None
    if warm:
        start = solve_diag_sdp(gram(rows + 0.05 * complex_normal(rng, rows.shape)),
                               b, tol=1e-4)
    solution = solve_diag_sdp(cost, b, tol=1e-4, warm=start)
    c_scale = float(np.max(np.abs(cost)))
    assert solution.primal_residual <= 1e-4
    assert np.linalg.eigvalsh(np.diag(solution.dual) - cost)[0] >= -1e-12 * c_scale
    assert np.linalg.eigvalsh(solution.x_opt)[0] >= -1e-12 * float(b.sum())
    if side == "phase":
        x = np.append(extract_phases(solution.x_opt, cost, n_rand=0).v, 1.0)
    else:
        x = extract_beamformer(solution.x_opt, cost, config, n_rand=0).w
    score = float(np.real(np.vdot(x, cost @ x)))
    bound = solution.objective + solution.duality_gap
    assert score <= bound + 1e-12 * c_scale * float(b.sum())


def test_solver_rejects_bad_warm_start():
    cost, b = pinned_problem(12)
    warm = solve_diag_sdp(cost, b, tol=1e-4)
    with pytest.raises(ValueError,
                       match=r"warm x_opt has shape \(12, 12\), expected \(11, 11\)"):
        solve_diag_sdp(cost[:11, :11], b[:11], warm=warm)
    with pytest.raises(ValueError, match=r"warm dual has shape \(11,\), expected \(12,\)"):
        solve_diag_sdp(cost, b, warm=dataclasses.replace(warm, dual=warm.dual[:11]))
    for bad in (np.nan, np.inf):
        dual = warm.dual.copy()
        dual[3] = bad
        with pytest.raises(ValueError, match="warm dual must be finite"):
            solve_diag_sdp(cost, b, warm=dataclasses.replace(warm, dual=dual))


def test_run_ao_warm_starts_take_fewer_iterations(monkeypatch, uncertified):
    # With every certificate failing, each half-step solves.  The first outer
    # iteration starts cold; from the second on, each solve starts from the
    # previous one of its side and, on this instance, the solves take fewer
    # iterations than the same run started cold.
    config = SystemConfig(n_irs=20, seed=3)
    channels = sample_channels(config, trial_stream(3, 0))
    ao = AoConfig(algorithm=ALGORITHM_SDP, max_outer_iters=6, rel_tol=0.0)

    def later_iterations():
        trace = run_ao(config, ao, channels, trial_stream(3, 1))
        assert trace.failure is None and trace.n_outer == ao.max_outer_iters
        return [s.sdp_iterations for s in trace.steps if s.outer_iter >= 2]

    warm = later_iterations()
    solve = sdp.solve_diag_sdp
    monkeypatch.setattr(sdp, "solve_diag_sdp",
                        lambda cost, b, tol, warm, stop: solve(cost, b, tol=tol, stop=stop))
    cold = later_iterations()
    assert sum(warm) < sum(cold)


# ---------------------------------------------------------------------------
# Rank-one extraction


def test_extract_beamformer_rank_one_exact():
    config = small_config(n=5)
    rng = trial_stream(24, 0)
    zeta = config.beam_amplitude * np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
    x_opt = np.outer(zeta, zeta.conj())
    big_h = np.outer(zeta, zeta.conj())  # optimum aligns with the generator
    beam = extract_beamformer(x_opt, big_h, config, n_rand=20, rng=rng)
    optimum = float(np.real(np.vdot(zeta, big_h @ zeta)))
    achieved = float(np.real(np.vdot(beam.w, big_h @ beam.w)))
    assert achieved == pytest.approx(optimum, rel=1e-10)
    np.testing.assert_allclose(np.abs(beam.w), config.beam_amplitude, atol=1e-12)


def test_extract_beamformer_deterministic():
    config = small_config(n=4)
    rng = trial_stream(25, 0)
    big_h = random_psd(rng, 4)
    first = extract_beamformer(np.eye(4), big_h, config, n_rand=50,
                               rng=trial_stream(25, 1))
    second = extract_beamformer(np.eye(4), big_h, config, n_rand=50,
                                rng=trial_stream(25, 1))
    assert np.array_equal(first.w, second.w)


def test_extract_beamformer_randomization_never_hurts():
    config = small_config(n=6)
    rng = trial_stream(26, 0)
    for trial in range(10):
        x_opt = random_psd(rng, 6)
        big_h = random_psd(rng, 6)
        eig_only = extract_beamformer(x_opt, big_h, config, n_rand=0,
                                      rng=trial_stream(26, 1, trial))
        with_draws = extract_beamformer(x_opt, big_h, config, n_rand=200,
                                        rng=trial_stream(26, 1, trial))
        score = lambda b: float(np.real(np.vdot(b.w, big_h @ b.w)))
        assert score(with_draws) >= score(eig_only) - 1e-12


def test_extract_beamformer_keeps_incumbent():
    # With an uninformative relaxed solution, a strong incumbent must win.
    config = small_config(n=5)
    rng = trial_stream(27, 0)
    h = np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
    big_h = np.outer(h.conj(), h)
    incumbent = Beamformer.from_phases(-np.angle(h), config)
    best = (config.beam_amplitude * config.n_tx) ** 2
    out = extract_beamformer(np.eye(5), big_h, config, n_rand=5,
                             rng=trial_stream(27, 1), incumbent=incumbent)
    achieved = float(np.real(np.vdot(out.w, big_h @ out.w)))
    assert achieved >= best * (1.0 - 1e-12)


def test_extract_beamformer_returns_a_winning_incumbent_itself():
    # A beam rebuilt from its phases need not have the same bits, so a
    # winning incumbent is returned as it is.
    config = small_config(n=12)
    rng = trial_stream(28, 0)
    beams = (Beamformer.from_phases(rng.uniform(-np.pi, np.pi, 12), config)
             for _ in range(50))
    incumbent = next(b for b in beams if not np.array_equal(
        Beamformer.from_phases(np.angle(b.w), config).w, b.w))
    big_h = np.outer(incumbent.w, incumbent.w.conj())   # maximised at the incumbent
    out = extract_beamformer(np.eye(12), big_h, config, n_rand=0,
                             incumbent=incumbent)
    assert np.array_equal(out.w, incumbent.w)


def test_extract_phases_rank_one_recovery():
    rng = trial_stream(28, 0)
    l_dim = 6
    v_gen = np.exp(1j * rng.uniform(-np.pi, np.pi, l_dim))
    lifted = np.concatenate([v_gen, [1.0 + 0.0j]])
    x_opt = np.outer(lifted, lifted.conj())
    big_f = 0.5 * (x_opt + x_opt.conj().T)
    recovered = extract_phases(x_opt, big_f, n_rand=0, rng=rng)
    np.testing.assert_allclose(recovered.v, v_gen, atol=1e-8)
    assert lifted_phase_score(big_f, recovered.v) == pytest.approx(
        float((l_dim + 1) ** 2), rel=1e-10)


def test_extract_phases_degenerate_tail_fallback():
    # A relaxed solution whose principal eigenvector has zero last entry
    # exercises the global-phase fallback; the rotation it picks must beat
    # the unrotated projection and every rotation on a fine grid, so a
    # rotation of the wrong sign fails.
    rng = trial_stream(29, 0)
    l_dim = 5
    v_gen = np.exp(1j * rng.uniform(-np.pi, np.pi, l_dim))
    x_opt = np.zeros((l_dim + 1, l_dim + 1), dtype=complex)
    x_opt[:l_dim, :l_dim] = np.outer(v_gen, v_gen.conj())
    x_opt[l_dim, l_dim] = 1.0
    f11 = random_psd(rng, l_dim)
    f12 = complex_normal(rng, (l_dim,))
    big_f = np.zeros((l_dim + 1, l_dim + 1), dtype=complex)
    big_f[:l_dim, :l_dim] = f11
    big_f[:l_dim, l_dim] = f12
    big_f[l_dim, :l_dim] = f12.conj()
    out = extract_phases(x_opt, big_f, n_rand=0, rng=rng)
    assert out.modulus_error() < 1e-15
    score = lifted_phase_score(big_f, out.v)
    assert score >= lifted_phase_score(big_f, v_gen) - 1e-9
    rotations = np.exp(1j * np.linspace(-np.pi, np.pi, 3601))
    best = max(lifted_phase_score(big_f, r * v_gen) for r in rotations)
    assert score >= best - 1e-9 * max(1.0, abs(best))


def test_extract_phases_turns_a_flat_tail_at_any_scale():
    # The flat-tail turn depends on the direction of v0^H f12 only; a
    # subnormal f12, as in a run at rho near 1e-309, once turned every
    # entry to NaN.
    rng = trial_stream(29, 1)
    l_dim = 5
    x_opt = np.zeros((l_dim + 1, l_dim + 1), dtype=complex)
    x_opt[:l_dim, :l_dim] = random_psd(rng, l_dim)
    big_f = np.zeros_like(x_opt)
    big_f[:l_dim, l_dim] = complex_normal(rng, (l_dim,))
    big_f[l_dim, :l_dim] = big_f[:l_dim, l_dim].conj()
    ref = extract_phases(x_opt, big_f, n_rand=0)
    for scale in (2.0 ** -1040, 2.0 ** 40):
        out = extract_phases(x_opt, scale * big_f, n_rand=0)
        np.testing.assert_allclose(out.v, ref.v, rtol=0.0, atol=1e-9)


def test_extract_phases_keeps_incumbent():
    rng = trial_stream(30, 0)
    l_dim = 6
    big_f = random_psd(rng, l_dim + 1)
    strong = extract_phases(random_psd(rng, l_dim + 1), big_f, n_rand=200,
                            rng=trial_stream(30, 1))
    weak_x = np.eye(l_dim + 1)
    out = extract_phases(weak_x, big_f, n_rand=0, rng=trial_stream(30, 2),
                         incumbent=strong)
    assert lifted_phase_score(big_f, out.v) >= \
        lifted_phase_score(big_f, strong.v) - 1e-12


def loop_extract_phases(x_opt, big_f, n_rand, rng, incumbent=None):
    """Reference: turn and project each candidate in turn, score it, and
    keep the first best; the incumbent replaces it only if strictly better,
    and then as itself."""
    l_dim = x_opt.shape[0] - 1
    f12 = big_f[:l_dim, l_dim]
    best_v, best_score = None, -np.inf
    for cand in _candidates(x_opt, n_rand, rng):
        head, tail = cand[:l_dim], cand[l_dim]
        if np.abs(tail) >= 1e-9:
            turn = project(np.conj(tail), 1.0)
        else:
            lin = np.vdot(project(head, 1.0), f12)
            turn = lin / np.abs(lin) if np.abs(lin) > 0.0 else 1.0
        v = project(head * turn, 1.0)
        score = lifted_phase_score(big_f, v)
        if score > best_score:
            best_v, best_score = v, score
    if incumbent is not None and lifted_phase_score(big_f, incumbent.v) > best_score:
        return incumbent
    return PhaseProfile.from_projection(best_v)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), l_dim=st.integers(1, 8),
       n_rand=st.integers(0, 40),
       tail=st.sampled_from(["regular", "degenerate", "mixed"]),
       incumbent_kind=st.sampled_from([None, "random", "winner"]),
       flat_score=st.booleans())
def test_extract_phases_matches_candidate_loop(seed, l_dim, n_rand, tail,
                                               incumbent_kind, flat_score):
    rng = trial_stream(36, seed)
    x_opt = np.zeros((l_dim + 1, l_dim + 1), dtype=complex)
    if tail == "regular":
        x_opt = random_psd(rng, l_dim + 1)
    else:
        # A zero last row and column sends every candidate through the
        # degenerate-tail fallback; a small last entry sends only the
        # principal eigenvector there.
        x_opt[:l_dim, :l_dim] = 10.0 * random_psd(rng, l_dim)
        x_opt[l_dim, l_dim] = 1e-3 if tail == "mixed" else 0.0
    # An all-zero score makes every candidate and the incumbent tie.
    big_f = np.zeros_like(x_opt) if flat_score else random_hermitian(rng, l_dim + 1)
    incumbent = None
    if incumbent_kind == "random":
        incumbent = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, l_dim))
    elif incumbent_kind == "winner":
        incumbent = loop_extract_phases(x_opt, big_f, n_rand, trial_stream(37, seed))

    out = extract_phases(x_opt, big_f, n_rand, trial_stream(37, seed), incumbent)
    ref = loop_extract_phases(x_opt, big_f, n_rand, trial_stream(37, seed), incumbent)
    if flat_score or tail == "regular":
        assert out.v.tobytes() == ref.v.tobytes()
    else:   # a fallback turn's inner product rounds apart from the batched one
        np.testing.assert_allclose(out.v, ref.v, atol=1e-9)


# ---------------------------------------------------------------------------
# Half-step wrappers


def lc_beam(big_h, beam0, config, tol):
    """The lc point of the beam side: `run_ao`'s SCA solve from beam0 in a
    map solved to `tol`, stopped as `run_ao` stops it."""
    return lc.sca_solve(big_h, beam0, config,
                        rel_tol=lc.SCA_REL_TOL * (tol / AoConfig.sdp_tol) ** 2)


def lc_phases(ops, phases0, tol):
    """The lc point of the phase side: `run_ao`'s MM solve from phases0."""
    return lc.mm_solve(ops, phases0, rel_tol=lc.MM_REL_TOL * (tol / AoConfig.sdp_tol) ** 2)


def test_sdp_update_w_matched_filter():
    # Rank-one cost: the relaxation is tight and the half-step returns the
    # per-antenna matched filter, objective amp^2 (sum |h_n|)^2, from the lc
    # point of a random start.
    config = small_config(n=4, p0=2.0)
    rng = trial_stream(31, 0)
    h = complex_normal(rng, (4,))
    big_h = np.outer(h.conj(), h)
    big_h = 0.5 * (big_h + big_h.conj().T)
    beam0 = Beamformer.from_phases(trial_stream(31, 1).uniform(-np.pi, np.pi, 4),
                                   config)
    beam, relaxed, _ = sdp_update_w(big_h, config, 1e-7,
                                    lc_beam(big_h, beam0, config, 1e-7))
    optimum = float(config.beam_amplitude ** 2 * np.sum(np.abs(h)) ** 2)
    feasible = float(np.real(np.vdot(beam.w, big_h @ beam.w)))
    assert relaxed == pytest.approx(optimum, rel=1e-6)
    assert feasible == pytest.approx(optimum, rel=1e-6)
    assert feasible <= relaxed * (1.0 + 1e-6)


def test_sdp_update_w_feasible_close_to_relaxed():
    # The half-step from an lc point stays within a few percent of the SDP
    # bound on random instances (median over 100 draws).
    config = small_config(n=4, p0=1.0)
    rng, starts = trial_stream(32, 0), trial_stream(32, 1)
    ratios = []
    for trial in range(100):
        big_h = random_psd(rng, 4)
        beam0 = Beamformer.from_phases(starts.uniform(-np.pi, np.pi, 4), config)
        beam, relaxed, _ = sdp_update_w(big_h, config, 1e-7,
                                        lc_beam(big_h, beam0, config, 1e-7))
        feasible = float(np.real(np.vdot(beam.w, big_h @ beam.w)))
        assert feasible <= relaxed * (1.0 + 1e-6)
        ratios.append(feasible / relaxed)
    assert float(np.median(ratios)) >= 0.95


def test_sdp_update_v_beats_quantized_search():
    # The extracted phase profile should match or beat an 8-level
    # exhaustive search up to quantization slack.
    angles = (-0.6, 0.4)
    config = SystemConfig(n_tx=3, n_irs=6, n_ehd=2, n_targets=2,
                          target_angles=angles, p0=1.0, rho=0.5, seed=33)
    rng = trial_stream(33, 0)
    channels = sample_channels(config, rng)
    beam = Beamformer.from_phases(rng.uniform(-np.pi, np.pi, 3), config)
    phases = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, 6))
    ops = build_operators(channels, None, beam, config)

    profile, relaxed, _ = sdp_update_v(ops.big_f, config, 1e-7,
                                       lc_phases(ops, phases, 1e-7))
    j_sdp = composite_objective(channels, profile, beam, config)
    assert j_sdp == pytest.approx(lifted_phase_score(ops.big_f, profile.v),
                                  rel=1e-10)
    assert j_sdp <= relaxed * (1.0 + 1e-6)

    budget = SearchBudget(phase_levels=8)
    _, j_oracle = quantized_phase_search(channels, beam, config, budget)
    assert j_sdp >= 0.98 * j_oracle


def test_sdp_update_v_leaves_big_f_alone():
    # The corner (the v-independent offset) is zeroed in a copy only, and
    # the bound is the same as for the corner-free matrix plus the offset.
    config = small_config(rho=0.5)
    rng = trial_stream(34, 0)
    channels = sample_channels(config, rng)
    beam = Beamformer.from_phases(rng.uniform(-np.pi, np.pi, 4), config)
    ops = build_operators(channels, None, beam, config)
    big_f = ops.big_f
    before = big_f.copy()
    assert big_f[-1, -1].real > 0.0
    point = lc_phases(ops, PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, 6)), 1e-7)
    profile, bound, _ = sdp_update_v(big_f, config, 1e-7, point)
    assert np.array_equal(big_f, before)

    corner_free = big_f.copy()
    corner_free[-1, -1] = 0.0
    profile0, bound0, _ = sdp_update_v(corner_free, config, 1e-7, point)
    assert np.array_equal(profile.alpha, profile0.alpha)
    assert bound == bound0 + big_f[-1, -1].real


# ---------------------------------------------------------------------------
# Weak duality: the reported bounds dominate every feasible point


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 12),
       tol=st.sampled_from([1e-7, 1e-4]))
def test_dual_value_bounds_rank_one_feasible_points(seed, n, tol):
    rng = trial_stream(38, seed)
    cost = random_hermitian(rng, n)
    b = rng.uniform(0.5, 2.0, n)
    solution = solve_diag_sdp(cost, b, tol=tol)
    bound = solution.objective + solution.duality_gap  # c_scale * b^T z
    # Random feasible points, plus the projected principal eigenvector of
    # the relaxed solution, which sits at the optimum when the relaxation
    # is tight (n <= 2) and so beats the primal value of an early stop.
    principal = np.linalg.eigh(solution.x_opt)[1][:, -1]
    phases = np.vstack([rng.uniform(-np.pi, np.pi, (64, n)), np.angle(principal)])
    x = np.sqrt(b) * np.exp(1j * phases)
    values = np.real(((x.conj() @ cost) * x).sum(1))  # Re tr(C x x^H) per row
    assert np.max(values) <= bound + 1e-12 * abs(bound)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4), l=st.integers(1, 8),
       rho=st.floats(0.0, 1.0), tol=st.sampled_from([1e-7, 1e-4]))
def test_half_step_bounds_dominate_returned_iterates(seed, n, l, rho, tol):
    # Each half-step returns a feasible iterate no worse than its incumbent
    # and no better than its dual bound, and draws nothing: two calls agree
    # bit for bit.
    config = SystemConfig(n_tx=n, n_irs=l, n_ehd=2, n_targets=2,
                          target_angles=(-0.5, 0.5), rho=rho, seed=seed)
    rng = trial_stream(39, seed)
    channels = sample_channels(config, rng)
    beam0 = Beamformer.from_phases(rng.uniform(-np.pi, np.pi, n), config)
    phases0 = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, l))

    big_h = build_operators(channels, phases0, None, config).big_h
    beam, bound_w, solution_w = sdp_update_w(big_h, config, tol=tol, incumbent=beam0)
    again, bound_again, solution_again = sdp_update_w(big_h, config, tol=tol,
                                                      incumbent=beam0)
    assert np.array_equal(beam.w, again.w) and bound_w == bound_again
    assert solution_w.iterations == solution_again.iterations
    j_w = composite_objective(channels, phases0, beam, config)
    j_0 = composite_objective(channels, phases0, beam0, config)
    assert j_w >= j_0 - 1e-12 * abs(j_0)
    assert j_w <= bound_w + 1e-12 * abs(bound_w)

    ops = build_operators(channels, None, beam, config)
    phases, bound_v, solution_v = sdp_update_v(ops.big_f, config, tol=tol,
                                               incumbent=phases0)
    again, bound_again, solution_again = sdp_update_v(ops.big_f, config, tol=tol,
                                                      incumbent=phases0)
    assert np.array_equal(phases.alpha, again.alpha) and bound_v == bound_again
    assert solution_v.iterations == solution_again.iterations
    j_v = composite_objective(channels, phases, beam, config)
    assert j_v >= j_w - 1e-12 * abs(j_w)
    assert j_v <= bound_v + 1e-12 * abs(bound_v)


# ---------------------------------------------------------------------------
# Certified half-steps


def feasible_point(rng, b):
    """A random x with |x_i|^2 = b_i."""
    return np.sqrt(b) * np.exp(1j * rng.uniform(-np.pi, np.pi, b.size))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 41), rank=st.integers(1, 8))
def test_certificate_is_a_dual_bound_at_any_feasible_point(seed, n, rank):
    # The shifted z is dual feasible, so the bound dominates x^H C x and the
    # relaxation's optimum; the record is xx^H with x's true residual.
    rng = trial_stream(40, seed)
    a = complex_normal(rng, (rank, n))
    cost = hermitian_part(a.conj().T @ a)
    b = rng.uniform(0.5, 2.0, n)
    x = feasible_point(rng, b)
    cert = sdp.certify(cost, b, x)
    norm = float(np.linalg.norm(cost, 2))
    value = float(np.vdot(x, cost @ x).real)
    bound = cert.objective + cert.duality_gap
    assert bound >= value - 1e-12 * abs(value)
    assert np.linalg.eigvalsh(np.diag(cert.dual) - cost)[0] >= -1e-12 * (1.0 + norm)
    assert cert.certified and cert.iterations == 0
    assert np.array_equal(cert.x_opt, np.outer(x, x.conj()))
    assert cert.primal_residual <= 1e-15 and cert.duality_gap >= 0.0
    relaxed = solve_diag_sdp(cost, b, tol=1e-7)
    assert relaxed.objective <= bound + 1e-6 * abs(bound)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 41),
       tol=st.sampled_from([1e-7, 1e-4, 1e-2]))
def test_certificate_passes_at_the_rank_one_optimum(seed, n, tol):
    # For C = a a^H, x = sqrt(b) a / |a| solves the relaxation: its
    # certificate passes, and its bound is the solver's dual value within
    # the solver's own stop rule.
    rng = trial_stream(41, seed)
    a = rng.uniform(0.1, 2.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    b = rng.uniform(0.5, 2.0, n)
    cost = np.outer(a, a.conj())
    cert = sdp.certify(cost, b, np.sqrt(b) * a / np.abs(a))
    bound = cert.objective + cert.duality_gap
    assert sdp._certified(bound, cert.objective, tol)
    assert bound == pytest.approx(float(np.sum(np.abs(a) * np.sqrt(b))) ** 2, rel=1e-12)
    solution = solve_diag_sdp(cost, b, tol=tol)
    dual_value = solution.objective + solution.duality_gap
    c_scale = float(np.max(np.abs(cost)))
    assert abs(bound - dual_value) <= tol * (c_scale + abs(bound) + abs(dual_value))


def half_step_draws(l, trials, seed):
    """Per trial: config, channels, a random beam and random phases."""
    config = SystemConfig(n_irs=l, seed=seed)
    for trial in range(trials):
        rng = trial_stream(seed, 0, trial)
        channels = sample_channels(config, rng)
        yield (config, channels,
               Beamformer.from_phases(rng.uniform(-np.pi, np.pi, config.n_tx), config),
               PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, l)))


def lc_points(config, channels, beam0, phases0, tol):
    """Each side's cost, diagonal, offset and the lc point `run_ao` hands
    its half-step, the lc solve from beam0 or phases0."""
    big_h = build_operators(channels, phases0, None, config).big_h
    ops = build_operators(channels, None, beam0, config)
    cost = ops.big_f.copy()
    offset, cost[-1, -1] = cost[-1, -1].real, 0.0
    return ((big_h, np.full(config.n_tx, config.per_antenna_power), 0.0,
             lc_beam(big_h, beam0, config, tol)),
            (cost, np.ones(config.n_irs + 1), offset, lc_phases(ops, phases0, tol)))


def lifted(point):
    """The certificate's x of a side's iterate: w, or [v; 1]."""
    return point.w if isinstance(point, Beamformer) else np.append(point.v, 1.0)


def pass_bounds(cost, b, tol, warm):
    """The dual value b^T z of the iterate each pass after the first starts
    from, read through a `stop` that never fires, and the solve's record."""
    bounds = []
    return bounds, solve_diag_sdp(cost, b, tol=tol, warm=warm, stop=bounds.append)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 41), rank=st.integers(1, 8),
       side=st.sampled_from(["beam", "phase"]), spread=st.sampled_from([0.0, 0.3, 3.0]),
       ascent=st.sampled_from([0, 30]), tol=st.sampled_from([1e-2, 1e-4]),
       warm=st.booleans())
def test_half_step_certifies_its_point_at_the_first_dual_iterate(seed, n, rank, side,
                                                                 spread, ascent, tol, warm):
    # A PSD cost of rank <= 8 and a feasible x: the principal direction of
    # the cost turned by phase noise of `spread`, projected, then moved by
    # `ascent` steps x <- project(C x), as the lc half-steps move it; the
    # solve starts cold or warm from a neighbour's solve.  The
    # half-step's bound dominates J(x) and J of what it returns.  When the
    # one-eigvalsh certificate fails, the solve stops at the first pass
    # k >= 1 whose dual value certifies x, and then returns x itself with
    # that bound and a record whose dual is feasible; a solve that no pass
    # certifies runs to its own stop and extracts.
    n = max(n, 2) if side == "phase" else n
    rng = trial_stream(46, seed)
    a = complex_normal(rng, (rank, n))
    big = hermitian_part(a.conj().T @ a)   # big_h, or big_f with its corner
    config = small_config(n=n, l=max(n - 1, 1))
    head = np.linalg.eigh(big)[1][:, -1] * np.exp(1j * spread * rng.standard_normal(n))
    for _ in range(ascent):
        head = big @ project(head / project(head[-1:], 1.0) if side == "phase" else head, 1.0)
    if side == "beam":
        amp = config.beam_amplitude
        point = Beamformer.from_projection(project(head, amp, amp))
        x, b, cost, offset = point.w, np.full(n, config.per_antenna_power), big, 0.0
        update = sdp_update_w
    else:
        point = PhaseProfile.from_projection(project(head[:-1] * np.conj(project(
            head[-1:], 1.0)), 1.0))
        x, b, cost = np.append(point.v, 1.0), np.ones(n), big.copy()
        offset, cost[-1, -1] = float(big[-1, -1].real), 0.0
        update = sdp_update_v
    start = None
    if warm:   # the solve of a neighbour with perturbed rows, as in a run
        near = a + 0.01 * complex_normal(rng, a.shape)
        near = hermitian_part(near.conj().T @ near)
        if side == "phase":
            near[-1, -1] = 0.0
        start = solve_diag_sdp(near, b, tol=tol)
    out, bound, record = update(big, config, tol, point, start)
    j_x = float(np.vdot(x, big @ x).real)
    j_out = float(np.vdot(lifted(out), big @ lifted(out)).real)
    rounding = 1e-12 * abs(bound)
    assert bound >= j_x - rounding and bound >= j_out - rounding
    if record.iterations == 0:
        assert record.certified and out is point
        return
    bounds, solution = pass_bounds(cost, b, tol, start)
    certifying = [k for k, dual in enumerate(bounds, start=1)
                  if dual + offset - j_x <= tol * abs(dual + offset)]
    if certifying:
        assert record.certified and out is point
        assert record.iterations == certifying[0] >= 1
        assert bound == bounds[certifying[0] - 1] + offset
        assert bound - j_x <= tol * abs(bound)
        norm = float(np.linalg.norm(cost, 2))
        assert np.linalg.eigvalsh(np.diag(record.dual) - cost)[0] >= -1e-12 * (1.0 + norm)
    else:
        assert not record.certified
        assert record.iterations == solution.iterations == len(bounds)


@pytest.mark.parametrize("n", [12, 41])
@pytest.mark.parametrize("tol", [1e-7, 1e-4, 1e-2])
def test_solver_without_stop_is_unchanged(n, tol):
    # A stop that never fires leaves every field of the record as the
    # solve without one returns it, bit for bit.
    cost, b = pinned_problem(n)
    plain = solve_diag_sdp(cost, b, tol=tol)
    passes = []
    watched = solve_diag_sdp(cost, b, tol=tol, stop=lambda record: passes.append(record))
    assert len(passes) == plain.iterations and not plain.certified
    for field in dataclasses.fields(sdp.SdpSolution):
        assert np.array_equal(getattr(plain, field.name), getattr(watched, field.name))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 41), rank=st.integers(1, 8),
       tol=st.sampled_from([1e-2, 1e-4]), warm=st.booleans(), fire=st.integers(1, 8))
def test_stop_sees_dual_values_and_ends_the_solve_at_its_first_true(seed, n, rank, tol,
                                                                    warm, fire):
    # `stop` receives each pass's dual value b^T z, after the first pass, as
    # a float: the values a stop that never fires sees, in order.  When it
    # first returns true, at its k-th call, the solve returns a record
    # flagged certified with k iterations, whose objective + duality_gap is
    # the float the hook received, bit for bit.  A solve that the hook never
    # ends is the solve without it.  `certify`'s objective is J(x) bit for
    # bit, so a half-step reads J from its record once.
    rng = trial_stream(48, seed)
    a = complex_normal(rng, (rank, n))
    cost = hermitian_part(a.conj().T @ a)
    b = rng.uniform(0.5, 2.0, n)
    start = None
    if warm:   # the solve of a neighbour with perturbed rows, as in a run
        near = a + 0.01 * complex_normal(rng, a.shape)
        start = solve_diag_sdp(hermitian_part(near.conj().T @ near), b, tol=tol)
    every, plain = pass_bounds(cost, b, tol, start)
    seen = []

    def stop(dual):
        seen.append(dual)
        return len(seen) == fire
    record = solve_diag_sdp(cost, b, tol=tol, warm=start, stop=stop)
    assert all(type(dual) is float for dual in every + seen)
    assert seen == every[:fire]
    if fire <= len(every):
        assert record.certified and record.iterations == fire
        assert record.objective + record.duality_gap == seen[-1]
    else:
        assert not record.certified and record.iterations == plain.iterations == len(seen)
        assert record.objective == plain.objective and np.array_equal(record.dual, plain.dual)
    x = np.sqrt(b) * project(complex_normal(rng, (n,)), 1.0)
    assert sdp.certify(cost, b, x).objective == float(np.vdot(x, cost @ x).real)


@pytest.mark.parametrize("tol", [1e-2, 1e-4])
def test_certified_half_steps_call_no_solve(monkeypatch, tol):
    # A half-step whose lc point passes the relative-gap test returns that
    # point with its certificate's bound and record, and calls no
    # solve_diag_sdp.  One that fails calls it once: when the solve stops at
    # the top of pass k + 1 (k >= 1 step tests) on a dual iterate whose
    # bound certifies the lc point, the half-step returns that point with
    # the iterate's bound and record, flagged; otherwise the solve runs to
    # its own stop and the record is not flagged.  All three kinds occur.
    solve, max_steps, calls, passes = sdp.solve_diag_sdp, sdp._max_steps, [], []

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    def counting_max_steps(*args):
        passes.append(None)
        return max_steps(*args)
    monkeypatch.setattr(sdp, "solve_diag_sdp", counting_solve)
    monkeypatch.setattr(sdp, "_max_steps", counting_max_steps)
    outcomes = set()
    for config, channels, beam0, phases0 in half_step_draws(40, 6, 42):
        big_f = build_operators(channels, None, beam0, config).big_f
        big_h = build_operators(channels, phases0, None, config).big_h
        sides = lc_points(config, channels, beam0, phases0, tol)
        for (cost, b, offset, point), update in zip(sides, (
                lambda point: sdp_update_w(big_h, config, tol, point),
                lambda point: sdp_update_v(big_f, config, tol, point))):
            x = lifted(point)
            j_val = float(np.vdot(x, cost @ x).real) + offset
            cert = sdp.certify(cost, b, x)
            bound = cert.objective + cert.duality_gap + offset
            passes_cheap = cert.duality_gap <= tol * abs(bound)
            del calls[:], passes[:]
            out, out_bound, record = update(point)
            assert len(calls) == (0 if passes_cheap else 1)
            assert len(passes) == record.iterations
            if passes_cheap:
                assert record.certified and record.iterations == 0
                assert out_bound == bound and np.array_equal(lifted(out), x)
                assert np.array_equal(record.dual, cert.dual)
            elif record.certified:
                assert record.iterations >= 1 and out is point
                assert out_bound == record.objective + record.duality_gap + offset
                assert out_bound - j_val <= tol * abs(out_bound)
            outcomes.add((record.certified, record.iterations > 0))
    assert outcomes == {(True, False), (True, True), (False, True)}


@pytest.mark.parametrize("tol", [1e-2, 1e-4])
def test_half_steps_take_no_lc_step(monkeypatch, tol):
    # The lc steps run in `run_ao`'s lc solves only: given its lc point, a
    # half-step certifies it or solves, and takes no lc step on either
    # branch.  Both branches occur.
    draws = [(config, lc_points(config, channels, beam0, phases0, tol))
             for config, channels, beam0, phases0 in half_step_draws(40, 6, 42)]
    steps = []
    for name in ("sca_update_w", "mm_update_v"):
        monkeypatch.setattr(lc, name, lambda *args, _name=name: steps.append(_name))
    certified = []
    for config, ((big_h, *_, beam), (cost, *_, phases)) in draws:
        certified.append(sdp_update_w(big_h, config, tol, beam)[2].certified)
        certified.append(sdp_update_v(cost, config, tol, phases)[2].certified)
    assert steps == [] and not hasattr(sdp, "lc")
    assert any(certified) and not all(certified)


@pytest.mark.parametrize("l", [8, 40])
def test_failed_certificate_falls_back_no_lower_than_the_lc_point(uncertified, l):
    # The fallback solves and extracts with the lc point as the incumbent, so
    # its J is no lower than the lc point's, and no higher than its bound.
    tol = 1e-4
    for config, channels, beam0, phases0 in half_step_draws(l, 4, 43):
        (*_, beam_lc), (*_, phases_lc) = lc_points(
            config, channels, beam0, phases0, tol)
        big_h = build_operators(channels, phases0, None, config).big_h
        beam, bound_w, record = sdp_update_w(big_h, config, tol, beam_lc)
        assert not record.certified
        j_lc = composite_objective(channels, phases0, beam_lc, config)
        j_w = composite_objective(channels, phases0, beam, config)
        assert bound_w + 1e-12 * abs(bound_w) >= j_w >= j_lc - 1e-12 * abs(j_lc)

        big_f = build_operators(channels, None, beam0, config).big_f
        phases, bound_v, record = sdp_update_v(big_f, config, tol, phases_lc)
        assert not record.certified
        j_lc = composite_objective(channels, phases_lc, beam0, config)
        j_v = composite_objective(channels, phases, beam0, config)
        assert bound_v + 1e-12 * abs(bound_v) >= j_v >= j_lc - 1e-12 * abs(j_lc)


def test_extract_phases_returns_a_winning_incumbent_itself():
    # A profile rebuilt from its phases need not have the same bits, so a
    # winning incumbent is returned as it is.
    rng = trial_stream(29, 0)
    profiles = (PhaseProfile.from_projection(project(complex_normal(rng, (12,)), 1.0))
                for _ in range(50))
    incumbent = next(p for p in profiles
                     if not np.array_equal(PhaseProfile(alpha=p.alpha).v, p.v))
    x = np.append(incumbent.v, 1.0)
    big_f = np.outer(x, x.conj())   # maximised at the incumbent
    assert extract_phases(np.eye(13), big_f, n_rand=0, incumbent=incumbent) is incumbent
