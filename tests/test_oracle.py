"""Brute-force quantized searches used as ground truth elsewhere."""

import dataclasses
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iswpt.objective import (Beamformer, PhaseProfile, beam_rows,
                             phase_rows, objective_for_beam_batch,
                             objective_for_phase_batch)
from iswpt import oracle
from iswpt.oracle import (SearchBudget, _grid_search, quantized_beam_search,
                          quantized_phase_search)
from iswpt.scenario import (ChannelSet, SystemConfig, sample_channels,
                            trial_stream)


def instance(seed, n=3, l=4, k=2, m=1, **overrides):
    angles = tuple(np.linspace(-0.8, 0.8, m))
    config = SystemConfig(n_tx=n, n_irs=l, n_ehd=k, n_targets=m,
                          target_angles=angles, seed=seed, **overrides)
    rng = trial_stream(seed, 0)
    channels = sample_channels(config, rng)
    beam = Beamformer.from_phases(rng.uniform(-np.pi, np.pi, n), config)
    phases = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, l))
    return config, channels, beam, phases


def full_grid(levels, dim):
    """Every grid phase vector, in lexicographic order."""
    grid = -np.pi + 2.0 * np.pi * np.arange(levels) / levels
    return grid[np.indices((levels,) * dim).reshape(dim, -1).T]


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(phase_levels=1)
    budget = SearchBudget(phase_levels=4)
    np.testing.assert_allclose(budget.grid(),
                               [-np.pi, -np.pi / 2, 0.0, np.pi / 2])


@pytest.mark.parametrize("field", ["phase_levels"])
@pytest.mark.parametrize("bad", [8.5, True, np.bool_(True), float("nan"),
                                 float("inf"), "8", None, 8.0, np.float64(8.0)])
def test_budget_rejects_non_whole_values_by_name(field, bad):
    # Unchecked, phase_levels=8.5 failed later inside range().  A whole float
    # is refused as every other count is.
    with pytest.raises(ValueError, match=rf"{field} must be an int >= 2, got "
                       + re.escape(repr(bad))):
        SearchBudget(**{field: bad})


def test_exhaustive_single_element_enumerates_grid():
    config, channels, beam, _ = instance(seed=1, l=1)
    budget = SearchBudget(phase_levels=4)
    assert budget.check_dim(1) == 4
    profile, score = quantized_phase_search(channels, beam, config, budget)
    candidates = np.exp(1j * budget.grid()[:, None])
    scores = objective_for_phase_batch(channels, beam, config, candidates)
    assert score == pytest.approx(float(np.max(scores)), rel=1e-12)
    assert profile.alpha[0] == pytest.approx(budget.grid()[int(np.argmax(scores))])


@pytest.mark.parametrize("search", ["phase", "beam"])
def test_searches_reject_channels_that_do_not_fit(search):
    # Unchecked, channels for L=6 under n_irs=8 failed with NumPy's
    # concatenation error, which names no input.
    config, channels, beam, _ = instance(seed=8, n=3, l=6)
    config = dataclasses.replace(config, n_irs=8)
    budget = SearchBudget(phase_levels=2)
    with pytest.raises(ValueError, match=r"channels\.h_br has shape \(6, 3\)"):
        if search == "phase":
            quantized_phase_search(channels, beam, config, budget)
        else:
            quantized_beam_search(channels, PhaseProfile(alpha=np.zeros(8)),
                                  config, budget)


@pytest.mark.parametrize("size, bad, match", [(3, np.nan, "must be finite"),
                                              (4, 0.0, "has shape (4,), expected (3,)")])
def test_searches_reject_a_fixed_variable_that_does_not_fit(size, bad, match):
    # Unchecked, a NaN beam or phase scored every row NaN and the search
    # died on a bare AssertionError; a wrong size hit NumPy's matmul error.
    config, channels, _, _ = instance(seed=8, n=3, l=3)
    budget = SearchBudget(phase_levels=2)
    values = np.zeros(size)
    values[1] = bad
    with pytest.raises(ValueError, match=re.escape("beam " + match)):
        quantized_phase_search(channels, Beamformer(w=values), config, budget)
    with pytest.raises(ValueError, match=re.escape("phases " + match)):
        quantized_beam_search(channels, PhaseProfile(alpha=values), config, budget)


def test_budget_overflow_rejected():
    # 8**7 = 2**21 evaluations exceed the cap of 2**20 on either side.
    config, channels, beam, phases = instance(seed=2, n=7, l=7)
    budget = SearchBudget(phase_levels=8)
    assert budget.check_dim(6) == 8 ** 6 <= oracle.MAX_EVALS
    with pytest.raises(ValueError, match="cap is"):
        quantized_phase_search(channels, beam, config, budget)
    with pytest.raises(ValueError, match="cap is"):
        quantized_beam_search(channels, phases, config, budget)


def test_exhaustive_tie_break_smallest_index():
    # All-zero channels score every profile identically; the first grid
    # point (all phases at -pi) must win, also against the ties of the
    # later score calls: the screen keeps all 4^8 = 65536 profiles, and the
    # search scores them in 16 calls of at most _CHUNK rows.
    config = SystemConfig(n_tx=2, n_irs=8, n_ehd=1, n_targets=1,
                          target_angles=(0.0,))
    channels = ChannelSet(h_br=np.zeros((8, 2)), h_ru=np.zeros((1, 8)),
                          h_d=np.zeros((1, 2)))
    beam = Beamformer.from_phases(np.zeros(2), config)
    budget = SearchBudget(phase_levels=4)
    score_rows, calls = counted(lambda rows: objective_for_phase_batch(
        channels, beam, config, rows))
    with mock.patch.object(oracle, "objective_for_phase_batch",
                           lambda *args: score_rows(args[-1])):
        profile, score = quantized_phase_search(channels, beam, config, budget)
    assert calls == [oracle._CHUNK] * 16
    assert score == 0.0
    np.testing.assert_allclose(profile.alpha, -np.pi)


def test_phase_search_matches_direct_enumeration():
    # The screened search over 4^8 = 65536 profiles agrees with a flat
    # argmax over all of them.
    config, channels, beam, _ = instance(seed=3, n=2, l=8, k=1, m=1)
    budget = SearchBudget(phase_levels=4)
    profile, score = quantized_phase_search(channels, beam, config, budget)

    alphas = full_grid(4, 8)
    scores = objective_for_phase_batch(channels, beam, config, np.exp(1j * alphas))
    best = int(np.argmax(scores))
    assert score == pytest.approx(float(scores[best]), rel=1e-12)
    np.testing.assert_allclose(profile.alpha, alphas[best], atol=1e-12)


def test_phase_search_alignment_bound_single_target():
    # With rho = 0 and one target the continuous optimum is full phase
    # alignment, (sum |d_l|)^2; an 8-level grid loses at most cos(pi/8)^2.
    config, channels, beam, phases = instance(seed=6, l=5, m=1, rho=0.0)
    d_row = phase_rows(channels, beam, config)[config.n_ehd, :-1]
    continuum = float(np.sum(np.abs(d_row)) ** 2)
    budget = SearchBudget(phase_levels=8)
    _, score = quantized_phase_search(channels, beam, config, budget)
    assert score <= continuum * (1.0 + 1e-9)
    assert score >= np.cos(np.pi / 8) ** 2 * continuum


def test_beam_search_matches_direct_enumeration():
    config, channels, _, phases = instance(seed=7, n=4, l=3)
    budget = SearchBudget(phase_levels=4)
    beam, score = quantized_beam_search(channels, phases, config, budget)

    w_phases = full_grid(4, 4)
    w_rows = config.beam_amplitude * np.exp(1j * w_phases)
    scores = objective_for_beam_batch(channels, phases, config, w_rows)
    best = int(np.argmax(scores))
    assert score == pytest.approx(float(scores[best]), rel=1e-12)
    np.testing.assert_allclose(np.angle(beam.w), w_phases[best], atol=1e-12)


def test_beam_search_alignment_bound_energy_only():
    # rho = 1 with a single device reduces to maximizing |h_tilde w|^2; the
    # per-antenna optimum is amp^2 (sum_n |h_n|)^2 up to quantization.
    config, channels, _, phases = instance(seed=8, n=5, k=1, rho=1.0)
    h_tilde = beam_rows(channels, phases, config)[:config.n_ehd]
    weight = config.eta * config.p0  # rho = 1
    continuum = weight * (config.beam_amplitude
                          * float(np.sum(np.abs(h_tilde[0])))) ** 2
    budget = SearchBudget(phase_levels=8)
    _, score = quantized_beam_search(channels, phases, config, budget)
    assert score <= continuum * (1.0 + 1e-9)
    assert score >= np.cos(np.pi / 8) ** 2 * continuum


def test_beam_search_feasible_output():
    config, channels, _, phases = instance(seed=9, n=3)
    budget = SearchBudget(phase_levels=4)
    beam, _ = quantized_beam_search(channels, phases, config, budget)
    np.testing.assert_allclose(np.abs(beam.w), config.beam_amplitude, atol=1e-12)


# ---------------------------------------------------------------------------
# The screened phasor-table search against the per-row exp search it replaced


def reference_grid_search(dim, budget, score, block):
    """The per-row exp search `_grid_search` replaced: every grid row in flat
    calls of `block` rows, `score` given grid phases (it applies exp itself),
    and the first best row kept."""
    phases = full_grid(budget.phase_levels, dim)
    scores = np.concatenate([score(phases[start:start + block])
                             for start in range(0, len(phases), block)])
    best = int(np.argmax(scores))
    return phases[best], float(scores[best])


def reference_searches(channels, beam, phases, config, budget, block):
    """Both reference searches, in flat calls of `block` rows, since BLAS
    may round a row differently with the number of rows in a call."""
    alpha, j_v = reference_grid_search(
        config.n_irs, budget, lambda a: objective_for_phase_batch(
            channels, beam, config, np.exp(1j * a)), block)
    amp = config.beam_amplitude
    w_phase, j_w = reference_grid_search(
        config.n_tx, budget, lambda a: objective_for_beam_batch(
            channels, phases, config, amp * np.exp(1j * a)), block)
    return ((PhaseProfile(alpha=alpha), j_v),
            (Beamformer.from_phases(w_phase, config), j_w))


def assert_bit_equal(got, want):
    (got_v, got_jv), (got_w, got_jw) = got
    (want_v, want_jv), (want_w, want_jw) = want
    assert got_jv == want_jv and got_jw == want_jw
    assert got_v.alpha.tobytes() == want_v.alpha.tobytes()
    assert got_w.w.tobytes() == want_w.w.tobytes()


def side_form(side, levels, dim, seed, zero=False, **overrides):
    """The search over `dim` phases of one side of an instance whose other
    side has 3: the grid's amplitude, its phasor table, the Gram form and
    the batch scorer, as `quantized_*_search` pass them to `_grid_search`.
    With `zero` the channels are all zero, so every row ties at J = 0."""
    n, l = (dim, 3) if side == "beam" else (3, dim)
    config, channels, beam, phases = instance(seed, n=n, l=l, **overrides)
    if zero:
        channels = ChannelSet(h_br=np.zeros((l, n)), h_ru=np.zeros((2, l)),
                              h_d=np.zeros((2, n)))
    if side == "phase":
        amp, lifted = 1.0, phase_rows(channels, beam, config)
        rows, offsets = lifted[:, :-1], lifted[:, -1]

        def score(x_rows):
            return objective_for_phase_batch(channels, beam, config, x_rows)
    else:
        amp, rows = config.beam_amplitude, beam_rows(channels, phases, config)
        offsets = np.zeros(len(rows))

        def score(x_rows):
            return objective_for_beam_batch(channels, phases, config, x_rows)
    table = amp * np.exp(1j * SearchBudget(phase_levels=levels).grid())
    return amp, (table, rows, oracle._weights(config, len(rows)), offsets), score


@st.composite
def search_cases(draw):
    levels = draw(st.integers(2, 9))
    max_dim = max(d for d in range(1, 7) if levels ** d <= 4096)
    return (levels, draw(st.integers(1, max_dim)), draw(st.sampled_from(["phase", "beam"])),
            draw(st.sampled_from([4, 5, 64, 1 << 15])),
            draw(st.integers(0, 2 ** 16)), draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(search_cases())
def test_grid_search_bit_equal_to_per_row_exp_search(case):
    # Against every grid row scored in one call from per-row exponentials:
    # the returned row's J is within the margin of the best, and the
    # returned score is that J to half the margin (a kept row may round
    # differently in a call of other rows).  On all-tie grids, bit for bit
    # the first row, with the kept rows spread over calls of a small chunk.
    levels, dim, side, chunk, seed, zero = case
    budget = SearchBudget(phase_levels=levels)
    amp, form, score = side_form(side, levels, dim, seed, zero)
    with mock.patch.object(oracle, "_CHUNK", chunk):
        got, value = _grid_search(budget, *form, score)
    phases = full_grid(levels, dim)
    scores = score(amp * np.exp(1j * phases))
    index = int(np.flatnonzero((phases == got).all(axis=1))[0])
    margin = oracle._margin(*form)
    assert scores[index] >= scores.max() - margin
    assert abs(value - scores[index]) <= margin / 2
    if zero:
        assert index == 0 and value == 0.0


def counted(score):
    calls = []

    def wrapped(rows):
        calls.append(len(rows))
        return score(rows)
    return wrapped, calls


def integer_form(levels, dim):
    """A small-integer table and Gram form: every product and sum is exact,
    so the score's bits do not depend on the rows per call.  The table
    repeats every 3 levels, so every row, the best too, ties exactly."""
    k = np.arange(levels) % 3
    table = (k - 1) + 1j * (k // 2)
    rows = np.array([np.arange(1, dim + 1), (-1) ** np.arange(dim)], complex)
    weights, offsets = np.array([1.0, 2.0]), np.array([1 - 1j, 0])

    def score(x_rows):
        products = x_rows @ rows.T + offsets
        return (products.real ** 2 + products.imag ** 2) @ weights
    return table, rows, weights, offsets, score


@pytest.mark.parametrize("levels, dim, chunk", [((1 << 15) + 5000, 1, 1 << 15), (7, 3, 5)])
def test_levels_above_chunk_scan_flat_chunks(levels, dim, chunk):
    # More levels than a chunk, or tied kept rows spread over several score
    # calls: the flat argmax, the first of the exact ties, still wins.
    budget = SearchBudget(phase_levels=levels)
    table, rows, weights, offsets, score = integer_form(levels, dim)
    all_rows = np.array(list(itertools.product(table, repeat=dim)))
    all_scores = score(all_rows)
    best = int(np.argmax(all_scores))
    assert np.count_nonzero(all_scores == all_scores[best]) > 1
    with mock.patch.object(oracle, "_CHUNK", chunk):
        phases, value = _grid_search(budget, table, rows, weights, offsets, score)
    assert value == float(all_scores[best])
    np.testing.assert_array_equal(phases, full_grid(levels, dim)[best])


@st.composite
def screen_cases(draw):
    levels = draw(st.integers(2, 9))
    max_dim = max(d for d in range(1, 5) if levels ** d <= 4096)
    return (levels, draw(st.integers(1, max_dim)), draw(st.sampled_from(["phase", "beam"])),
            draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.integers(0, 2 ** 16)),
            draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(screen_cases())
@example((9, 1, "phase", 0.5, 3, False))   # dim 1: no first-half digits
@example((9, 1, "beam", 1.0, 4, False))
@example((8, 4, "beam", 0.5, 5, False))    # 8 rotations of the best tie
@example((3, 4, "phase", 0.0, 6, True))    # all-zero channels
def test_screen_bounds_every_row_and_keeps_every_co_maximum(case):
    # On every grid row the screened value is within the documented bound
    # (half the margin) of the batch evaluator's J, and the search scores
    # every row that scores a maximum of the one-call full scan.
    levels, dim, side, rho, seed, zero = case
    budget = SearchBudget(phase_levels=levels)
    _, form, score = side_form(side, levels, dim, seed, zero, rho=rho)
    table = form[0]
    all_rows = table[np.indices((levels,) * dim).reshape(dim, -1).T]
    scan = score(all_rows)
    margin = oracle._margin(*form)
    assert np.all(np.abs(oracle._screened(*form).ravel() - scan) <= margin / 2)
    scored = []
    _grid_search(budget, *form, lambda x_rows: scored.append(x_rows.copy()) or score(x_rows))
    scored = {row.tobytes() for row in np.concatenate(scored)}
    assert all(row.tobytes() in scored for row in all_rows[scan == scan.max()])
    if zero:
        assert margin == 0.0 and len(scored) == len(all_rows)


@settings(max_examples=60, deadline=None)
@given(screen_cases(), st.booleans())
@example((8, 4, "beam", 0.5, 5, False), False)   # rotations of the best in other heads
@example((3, 4, "phase", 0.0, 6, True), False)   # all-zero channels: margin 0, all tie
@example((5, 3, "phase", 0.5, 7, False), True)   # a NaN phasor: every row kept
@example((4, 2, "beam", 1.0, 8, True), True)
def test_search_scores_the_rows_within_the_margin_of_the_flat_screen(case, nan):
    # The per-head selection passes `score` exactly the rows that a compare
    # of the whole raveled screen keeps, in flat lexicographic order.
    levels, dim, side, rho, seed, zero = case
    table, *form = side_form(side, levels, dim, seed, zero, rho=rho)[1]
    if nan:
        table = table.copy()
        table[1] = np.nan
    screen = oracle._screened(table, *form).ravel()
    want = np.flatnonzero(~(screen < screen.max() - oracle._margin(table, *form)))
    scored = []
    _grid_search(SearchBudget(phase_levels=levels), table, *form,
                 lambda x_rows: scored.append(x_rows.copy()) or np.zeros(len(x_rows)))
    all_rows = table[np.indices((levels,) * dim).reshape(dim, -1).T]
    np.testing.assert_array_equal(np.concatenate(scored), all_rows[want])
    if nan or zero:
        assert len(want) == len(all_rows)


def oracle_small_trial(seed=1):
    """The first oracle-small trial of the benchmark at `seed`."""
    config = dataclasses.replace(SystemConfig(seed=seed), n_tx=6, n_irs=6, rho=0.5)
    channels = sample_channels(config, trial_stream(seed, 0, 0))
    rng = trial_stream(seed, 1, 0)
    beam = Beamformer.from_phases(rng.uniform(-np.pi, np.pi, 6), config)
    phases = PhaseProfile(rng.uniform(-np.pi, np.pi, 6))
    return config, channels, beam, phases, SearchBudget()


def test_oracle_small_seed1_trial0_pinned():
    # Exact scores and grid indices, the same as the per-row exp search gave.
    config, channels, beam, phases, budget = oracle_small_trial()
    grid = budget.grid()
    best_v, j_v = quantized_phase_search(channels, beam, config, budget)
    best_w, j_w = quantized_beam_search(channels, phases, config, budget)
    assert j_v.hex() == "0x1.662f249e619d9p+1"
    assert j_w.hex() == "0x1.63e337547fb8bp+2"
    np.testing.assert_array_equal(best_v.alpha, grid[[3, 4, 1, 3, 1, 5]])
    np.testing.assert_array_equal(best_w.w, config.beam_amplitude
                                  * np.exp(1j * grid[[0, 1, 1, 6, 0, 1]]))
    assert_bit_equal(((best_v, j_v), (best_w, j_w)),
                     reference_searches(channels, beam, phases, config, budget,
                                        block=oracle._CHUNK))


def test_oracle_small_seed1_trial0_scores_nine_rows():
    # Of the 2 * 8**6 grid rows the screen leaves the phase optimum and the
    # beam optimum's 8 global-phase rotations, which tie, to score.
    config, channels, beam, phases, budget = oracle_small_trial()
    score_v, calls_v = counted(lambda rows: objective_for_phase_batch(
        channels, beam, config, rows))
    score_w, calls_w = counted(lambda rows: objective_for_beam_batch(
        channels, phases, config, rows))
    with mock.patch.object(oracle, "objective_for_phase_batch",
                           lambda *args: score_v(args[-1])), \
            mock.patch.object(oracle, "objective_for_beam_batch",
                              lambda *args: score_w(args[-1])):
        quantized_phase_search(channels, beam, config, budget)
        quantized_beam_search(channels, phases, config, budget)
    assert (calls_v, calls_w) == ([1], [8])


@pytest.mark.parametrize("search", ["phase", "beam"])
def test_searches_hold_one_blas_thread_and_restore_the_count(monkeypatch, search,
                                                             blas_at_two_threads):
    get = blas_at_two_threads
    config, channels, beam, phases, budget = oracle_small_trial()
    seen = []

    def spy(*args):
        seen.append(get())
        return _grid_search(*args)

    monkeypatch.setattr(oracle, "_grid_search", spy)
    if search == "phase":
        quantized_phase_search(channels, beam, config, budget)
    else:
        quantized_beam_search(channels, phases, config, budget)
    assert seen == [1] and get() == 2


@pytest.mark.parametrize("seed", [45, 46, 47])
def test_one_blas_thread_changes_no_search_bit(seed, blas_at_two_threads):
    # At 8 levels and N = L = 6 the screen's (512, 18) @ (18, 512) product
    # splits over two threads unwrapped; winners and scores are the same bits.
    config, channels, beam, phases, budget = oracle_small_trial(seed)
    assert_bit_equal(*[(phase_search(channels, beam, config, budget),
                        beam_search(channels, phases, config, budget))
                       for phase_search, beam_search in (
                           (quantized_phase_search, quantized_beam_search),
                           (quantized_phase_search.__wrapped__,
                            quantized_beam_search.__wrapped__))])
