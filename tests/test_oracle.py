"""Brute-force quantized searches used as ground truth elsewhere."""

import itertools

import numpy as np
import pytest

from iswpt.objective import (Beamformer, PhaseProfile, _cascade_terms,
                             _effective_channels, objective_for_beam_batch,
                             objective_for_phase_batch)
from iswpt.oracle import (SearchBudget, quantized_beam_search,
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
    with pytest.raises(ValueError):
        SearchBudget(max_evals=0)
    budget = SearchBudget(phase_levels=4)
    np.testing.assert_allclose(budget.grid(),
                               [-np.pi, -np.pi / 2, 0.0, np.pi / 2])


def test_exhaustive_single_element_enumerates_grid():
    config, channels, beam, _ = instance(seed=1, l=1)
    budget = SearchBudget(phase_levels=4)
    assert budget.check_dim(1) == 4
    profile, score = quantized_phase_search(channels, beam, config, budget)
    candidates = np.exp(1j * budget.grid()[:, None])
    scores = objective_for_phase_batch(channels, beam, config, candidates)
    assert score == pytest.approx(float(np.max(scores)), rel=1e-12)
    assert profile.alpha[0] == pytest.approx(budget.grid()[int(np.argmax(scores))])


def test_budget_overflow_rejected():
    config, channels, beam, phases = instance(seed=2, l=3)
    budget = SearchBudget(phase_levels=8, max_evals=100)
    with pytest.raises(ValueError, match="budget"):
        quantized_phase_search(channels, beam, config, budget)
    with pytest.raises(ValueError, match="budget"):
        quantized_beam_search(channels, phases, config, budget)


def test_exhaustive_tie_break_smallest_index():
    # All-zero channels score every profile identically; the first grid
    # point (all phases at -pi) must win, also against the ties of the
    # second evaluation chunk (4^8 = 65536 profiles span two).
    config = SystemConfig(n_tx=2, n_irs=8, n_ehd=1, n_targets=1,
                          target_angles=(0.0,))
    channels = ChannelSet(h_br=np.zeros((8, 2)), h_ru=np.zeros((1, 8)),
                          h_d=np.zeros((1, 2)))
    beam = Beamformer.from_phases(np.zeros(2), config)
    budget = SearchBudget(phase_levels=4, max_evals=1 << 17)
    profile, score = quantized_phase_search(channels, beam, config, budget)
    assert score == 0.0
    np.testing.assert_allclose(profile.alpha, -np.pi)


def test_exhaustive_matches_direct_enumeration_across_chunks():
    # 4^8 = 65536 profiles spans more than one evaluation chunk, so this
    # also checks the chunked reduction agrees with a flat argmax.
    config, channels, beam, _ = instance(seed=3, n=2, l=8, k=1, m=1)
    budget = SearchBudget(phase_levels=4, max_evals=1 << 17)
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
    _, _, d_vecs = _cascade_terms(channels, beam, config)
    continuum = float(np.sum(np.abs(d_vecs[0])) ** 2)
    budget = SearchBudget(phase_levels=8, max_evals=8 ** 5)
    _, score = quantized_phase_search(channels, beam, config, budget)
    assert score <= continuum * (1.0 + 1e-9)
    assert score >= np.cos(np.pi / 8) ** 2 * continuum


def test_beam_search_matches_direct_enumeration():
    config, channels, _, phases = instance(seed=7, n=4, l=3)
    budget = SearchBudget(phase_levels=4, max_evals=4 ** 4)
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
    h_tilde, _ = _effective_channels(channels, phases, config)
    weight = config.eta * config.p0  # rho = 1
    continuum = weight * (config.beam_amplitude
                          * float(np.sum(np.abs(h_tilde[0])))) ** 2
    budget = SearchBudget(phase_levels=8, max_evals=8 ** 5)
    _, score = quantized_beam_search(channels, phases, config, budget)
    assert score <= continuum * (1.0 + 1e-9)
    assert score >= np.cos(np.pi / 8) ** 2 * continuum


def test_beam_search_feasible_output():
    config, channels, _, phases = instance(seed=9, n=3)
    budget = SearchBudget(phase_levels=4, max_evals=4 ** 3)
    beam, _ = quantized_beam_search(channels, phases, config, budget)
    np.testing.assert_allclose(np.abs(beam.w), config.beam_amplitude, atol=1e-12)
