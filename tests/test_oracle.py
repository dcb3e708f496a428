"""Brute-force quantized searches used as ground truth elsewhere."""

import dataclasses
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iswpt.objective import (Beamformer, PhaseProfile, _beam_rows,
                             _phase_rows, objective_for_beam_batch,
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
    grid = -np.pi + 2.0 * np.pi * np.arange(levels) / levels
    combos = np.array(list(itertools.product(range(levels), repeat=dim)))
    return grid[combos]


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
    # later evaluation chunks (4^8 = 65536 profiles span 16), every one of
    # which the screen keeps and the search scores.
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


def test_exhaustive_matches_direct_enumeration_across_chunks():
    # 4^8 = 65536 profiles spans more than one evaluation chunk, so this
    # also checks the chunked reduction agrees with a flat argmax.
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
    d_row = _phase_rows(channels, beam, config)[config.n_ehd, :-1]
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
    h_tilde = _beam_rows(channels, phases, config)[:config.n_ehd]
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
# The phasor-table search against the per-row exp search it replaced


def reference_grid_search(dim, budget, score, block):
    """The per-row exp search `_grid_search` replaced: flat chunks of `block`
    rows (oracle._CHUNK there), digits decoded per row, `score` given grid
    phases (it applies exp itself), and the best kept as a row."""
    levels, total, grid = budget.phase_levels, budget.check_dim(dim), budget.grid()
    best_score, best_phases = -np.inf, None
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        digits = np.empty((idx.size, dim), dtype=np.int64)
        for j in range(dim - 1, -1, -1):
            digits[:, j] = idx % levels
            idx = idx // levels
        phases = grid[digits]
        scores = score(phases)
        local = int(np.argmax(scores))
        if float(scores[local]) > best_score:
            best_score, best_phases = float(scores[local]), phases[local]
    return best_phases, best_score


def search_rows(levels, dim, chunk):
    """Rows per score call of `_grid_search` (pinned by the test below)."""
    low = max(k for k in range(dim + 1) if levels ** k <= chunk)
    return levels ** low


def reference_searches(channels, beam, phases, config, budget, block=None):
    """Both reference searches, in flat chunks of `block` rows; by default
    the rows of each call of `_grid_search`, since BLAS may round a row
    differently with the number of rows in a call (seen with 2 vs 3 rows)."""
    def rows(dim):
        if block is None:
            return search_rows(budget.phase_levels, dim, oracle._CHUNK)
        return block

    alpha, j_v = reference_grid_search(
        config.n_irs, budget, lambda a: objective_for_phase_batch(
            channels, beam, config, np.exp(1j * a)), rows(config.n_irs))
    amp = config.beam_amplitude
    w_phase, j_w = reference_grid_search(
        config.n_tx, budget, lambda a: objective_for_beam_batch(
            channels, phases, config, amp * np.exp(1j * a)), rows(config.n_tx))
    return ((PhaseProfile(alpha=alpha), j_v),
            (Beamformer.from_phases(w_phase, config), j_w))


def assert_bit_equal(got, want):
    (got_v, got_jv), (got_w, got_jw) = got
    (want_v, want_jv), (want_w, want_jw) = want
    assert got_jv == want_jv and got_jw == want_jw
    assert got_v.alpha.tobytes() == want_v.alpha.tobytes()
    assert got_w.w.tobytes() == want_w.w.tobytes()


@st.composite
def search_cases(draw):
    levels = draw(st.integers(2, 9))
    max_dim = max(d for d in range(1, 7) if levels ** d <= 4096)
    return (levels, draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim)),
            draw(st.sampled_from([4, 5, 64, 1 << 15])),
            draw(st.integers(0, 2 ** 16)), draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(search_cases())
def test_grid_search_bit_equal_to_per_row_exp_search(case):
    # Small chunk sizes make even these small grids span several chunks,
    # with the low/high digit split at every depth (or none: a chunk of 4
    # or 5 rows is smaller than one digit for levels above it).
    levels, n, l, chunk, seed, zero = case
    config, channels, beam, phases = instance(seed, n=n, l=l)
    if zero:  # every row ties: the smallest index must win
        channels = ChannelSet(h_br=np.zeros((l, n)), h_ru=np.zeros((2, l)),
                              h_d=np.zeros((2, n)))
    budget = SearchBudget(phase_levels=levels)
    with mock.patch.object(oracle, "_CHUNK", chunk):
        got = (quantized_phase_search(channels, beam, config, budget),
               quantized_beam_search(channels, phases, config, budget))
        want = reference_searches(channels, beam, phases, config, budget)
    assert_bit_equal(got, want)
    if zero:
        np.testing.assert_array_equal(got[0][0].alpha, -np.pi)


def counted(score):
    calls = []

    def wrapped(rows):
        calls.append(len(rows))
        return score(rows)
    return wrapped, calls


def zero_form(dim):
    """A Gram form that scores every row 0: the screen keeps every chunk."""
    return np.zeros((1, dim), complex), np.ones(1), np.zeros(1)


@pytest.mark.parametrize("levels, dim, low", [(8, 6, 4), (2, 16, 12), (3, 10, 7),
                                              (5, 3, 3), (64, 2, 2), (65, 2, 1)])
def test_chunks_are_one_low_digit_block(levels, dim, low):
    # A chunk is all levels**low combinations of the low digits, low being
    # the largest k <= dim with levels**k <= _CHUNK (64**2 <= 2**12 < 65**2).
    assert levels ** low <= oracle._CHUNK
    assert low == dim or levels ** (low + 1) > oracle._CHUNK
    score, calls = counted(lambda rows: np.zeros(len(rows)))
    budget = SearchBudget(phase_levels=levels)
    _grid_search(budget, np.exp(1j * budget.grid()), *zero_form(dim), score)
    assert calls == [levels ** low] * levels ** (dim - low)


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
    # No whole digit fits a chunk, so each chunk is one row: the flat argmax
    # still wins, against exact ties across many chunks.
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
            draw(st.sampled_from([4, 64, 4096])), draw(st.sampled_from([0.0, 0.5, 1.0])),
            draw(st.integers(0, 2 ** 16)), draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(screen_cases())
@example((9, 1, "phase", 4, 0.5, 3, False))   # dim 1, more levels than a chunk
@example((9, 1, "beam", 4, 1.0, 4, False))
@example((8, 4, "beam", 64, 0.5, 5, False))   # 8 rotations of the best tie
@example((3, 4, "phase", 4, 0.0, 6, True))    # all-zero channels
def test_screen_bounds_every_row_and_keeps_every_co_maximum(case):
    # On every grid row the screened value is within the documented bound
    # (half the margin) of the batch evaluator's J, and every chunk that
    # holds a maximum of the chunk-by-chunk full scan is kept.
    levels, dim, side, chunk, rho, seed, zero = case
    n, l = (dim, 3) if side == "beam" else (3, dim)
    config, channels, beam, phases = instance(seed, n=n, l=l, rho=rho)
    if zero:
        channels = ChannelSet(h_br=np.zeros((l, n)), h_ru=np.zeros((2, l)),
                              h_d=np.zeros((2, n)))
    budget = SearchBudget(phase_levels=levels)
    if side == "phase":
        lifted = _phase_rows(channels, beam, config)
        table, rows, offsets = np.exp(1j * budget.grid()), lifted[:, :-1], lifted[:, -1]

        def score(x_rows):
            return objective_for_phase_batch(channels, beam, config, x_rows)
    else:
        rows = _beam_rows(channels, phases, config)
        table = config.beam_amplitude * np.exp(1j * budget.grid())
        offsets = np.zeros(len(rows))

        def score(x_rows):
            return objective_for_beam_batch(channels, phases, config, x_rows)
    weights = oracle._weights(config, len(rows))
    size = search_rows(levels, dim, chunk)
    all_rows = np.array(list(itertools.product(table, repeat=dim)))
    screened = np.concatenate(list(oracle._screened_blocks(table, rows, weights,
                                                           offsets, size)))
    margin = oracle._margin(table, rows, weights, offsets)
    assert np.all(np.abs(screened - score(all_rows)) <= margin / 2)
    scan = np.concatenate([score(all_rows[start:start + size])
                           for start in range(0, len(all_rows), size)])
    best_chunks = set(np.flatnonzero(scan == scan.max()) // size)
    assert best_chunks <= set(oracle._kept_chunks(table, rows, weights, offsets, size))
    if zero:
        assert margin == 0.0 and len(best_chunks) == len(all_rows) // size


def test_oracle_small_seed1_trial0_pinned():
    # The first oracle-small trial of the benchmark at seed 1: exact scores
    # and grid indices, the same as the per-row exp search gave.
    config = dataclasses.replace(SystemConfig(seed=1), n_tx=6, n_irs=6, rho=0.5)
    channels = sample_channels(config, trial_stream(1, 0, 0))
    rng = trial_stream(1, 1, 0)
    beam = Beamformer.from_phases(rng.uniform(-np.pi, np.pi, 6), config)
    phases = PhaseProfile(rng.uniform(-np.pi, np.pi, 6))
    budget = SearchBudget()
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
