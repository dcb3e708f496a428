"""Brute-force reference optimizers over quantized phase grids.

These are deliberately simple exhaustive searches used as ground truth for
the iterative algorithms on small instances.  The phase grid has
`phase_levels` points -pi + 2*pi*i/levels, i = 0..levels-1, and a search
enumerates all levels**dim combinations in lexicographic order over the
digit vector (first element most significant).  Objective values come from
the shared batch evaluators in `objective`, so the oracle measures exactly
the J the algorithms optimise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objective import (Beamformer, PhaseProfile, objective_for_beam_batch,
                        objective_for_phase_batch)
from .scenario import ChannelSet, SystemConfig

_CHUNK = 1 << 15


@dataclass(frozen=True)
class SearchBudget:
    """Grid resolution and evaluation cap of one brute-force search."""

    phase_levels: int = 8
    max_evals: int = 1 << 20

    def __post_init__(self) -> None:
        if self.phase_levels < 2:
            raise ValueError("phase_levels must be >= 2")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")

    def grid(self) -> np.ndarray:
        """The quantized phase values in [-pi, pi)."""
        i = np.arange(self.phase_levels)
        return -np.pi + 2.0 * np.pi * i / self.phase_levels

    def check_dim(self, dim: int) -> int:
        """Total evaluation count of a search over `dim` phases; rejects overflow."""
        total = self.phase_levels ** dim
        if total > self.max_evals:
            raise ValueError(
                f"exhaustive search needs {total} evaluations for dim {dim}, "
                f"budget allows {self.max_evals}")
        return total


def _digit_block(start: int, stop: int, levels: int, dim: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic digit enumeration."""
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((idx.size, dim), dtype=np.int64)
    for j in range(dim - 1, -1, -1):
        digits[:, j] = idx % levels
        idx = idx // levels
    return digits


def _grid_search(dim: int, budget: SearchBudget,
                 score: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, float]:
    """Best phase vector of the full `dim`-dimensional grid under `score`.

    `score` maps a (B, dim) block of grid phases to B objective values.  The
    grid is scanned in chunks; strict > comparisons keep the smallest
    lexicographic index on ties, so the result does not depend on chunking.
    """
    total = budget.check_dim(dim)
    grid = budget.grid()
    best_score, best_phases = -np.inf, None
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        phases = grid[_digit_block(start, stop, budget.phase_levels, dim)]
        scores = score(phases)
        local = int(np.argmax(scores))
        if float(scores[local]) > best_score:
            best_score, best_phases = float(scores[local]), phases[local]
    assert best_phases is not None
    return best_phases, best_score


def quantized_phase_search(channels: ChannelSet, beam: Beamformer,
                           config: SystemConfig, budget: SearchBudget
                           ) -> tuple[PhaseProfile, float]:
    """Best quantized phase profile at a fixed beamformer."""
    alpha, score = _grid_search(config.n_irs, budget, lambda alphas:
                                objective_for_phase_batch(channels, beam, config,
                                                          np.exp(1j * alphas)))
    return PhaseProfile(alpha=alpha), score


def quantized_beam_search(channels: ChannelSet, phases: PhaseProfile,
                          config: SystemConfig, budget: SearchBudget
                          ) -> tuple[Beamformer, float]:
    """Best quantized constant-modulus beamformer at fixed phases."""
    amp = config.beam_amplitude
    w_phase, score = _grid_search(config.n_tx, budget, lambda w_phases:
                                  objective_for_beam_batch(channels, phases, config,
                                                           amp * np.exp(1j * w_phases)))
    return Beamformer.from_phases(w_phase, config), score
